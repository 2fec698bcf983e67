// The escape check's line-above fixture: a hot function whose allocation
// the test's canned compiler output reports as a heap escape, excused by
// //pam:escape-ok on the line above it, so the check stays silent.
package fixture

// above is hot and excused by the hatch on the line above.
//
//pam:hotpath
func above(n int) []byte {
	//pam:escape-ok one-time prologue buffer
	return make([]byte, n)
}
