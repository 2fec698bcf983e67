// The pkgdoc check's golden fixture: this comment is separated from the
// package clause by a blank line, so the package has no godoc.

package nodoc // want `package nodoc has no package-level godoc comment`

// Documented is documented; the package is not.
func Documented() {}
