// The escape check's golden fixture: hot functions whose allocations the
// test's canned compiler output reports as heap escapes. Only the one in an
// unexcused //pam:hotpath body is a finding; the cold function and the
// trailing //pam:escape-ok line stay silent. The hatch on the line above has
// its own fixture, testdata/escapeabove.
package fixture

// hot allocates on a checked hot path.
//
//pam:hotpath
func hot(n int) []byte {
	return make([]byte, n) // want `hot path fixture.hot: make\(\[\]byte, n\) escapes to heap`
}

// cold allocates freely: not annotated.
func cold(n int) []byte {
	return make([]byte, n)
}

// excused is hot but carries a reasoned hatch on the line.
//
//pam:hotpath
func (w *worker) excused(n int) []byte {
	return make([]byte, n) //pam:escape-ok one-time prologue buffer
}

type worker struct{}
