package core

import "repro/internal/chain"

// PAM is the paper's Push Aside Migration selection algorithm (§2) on its
// own terms: one service chain. It is the selection loop (policy.run) over
// the view lifted to a single load, restricted to border vNFs.
type PAM struct {
	// Mode selects border identification semantics; the zero value
	// (BorderModePaper) matches the paper's Figure 1 literally. The view's
	// BorderMode, when different policies are compared, takes precedence.
	Mode chain.BorderMode
}

// Name implements Selector.
func (PAM) Name() string { return "PAM" }

// Select implements Selector, running Steps 1–3 against the view.
func (p PAM) Select(v View) (Plan, error) {
	return policy{name: p.Name(), borders: true, mode: p.Mode, dma: true}.selectOne(v)
}
