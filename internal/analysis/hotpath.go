package analysis

// The hotpath analyzer: functions annotated //pam:hotpath are
// run-to-completion dataplane paths (ring push/pop, SendChain, the gate
// fast path, the worker poll loop). go vet and -race only see such code
// misbehave when a rare interleaving fires; this analyzer instead walks the
// static call graph from every annotated root and rejects constructs that
// block, take the wrong clocks, or allocate:
//
//   - calls to banned functions: time.Now/Sleep/After/Tick/NewTimer/
//     NewTicker, mutex/rwmutex acquisition (Lock/RLock/TryLock),
//     sync.Cond operations, WaitGroup.Wait, runtime.Gosched/GC — and any
//     call into the fmt, log or errors packages (formatting allocates and
//     boxes). time.Since is deliberately allowed: against a monotonic
//     anchor it is a runtime clock read with no allocation, the idiom the
//     gates' nano-unit clock is built on.
//   - blocking channel operations: bare sends and receives, selects
//     without a default clause, and ranging over a channel. A select WITH
//     a default is non-blocking by construction (the Dekker-style
//     park/wake signal idiom) and passes.
//   - go statements (spawning allocates and schedules).
//   - heap-allocating constructs: make, new, func literals (closures),
//     slice/map/chan composite literals, taking the address of a composite
//     literal, string concatenation and string<->[]byte conversions.
//     Struct composite literals pass — they stay on the stack unless they
//     escape, which the escape check guards dynamically from the
//     compiler's own -m analysis.
//
// The walk descends transitively into every in-module callee with a body.
// Three escapes bound it:
//
//   - a callee annotated //pam:hotpath is a root of its own — checked
//     separately, not re-walked;
//   - a callee annotated //pam:slowpath is a guarded slow-path entry (the
//     gate's FIFO queue, the zero-rate park, the control rendezvous): the
//     call is allowed and the body not descended;
//   - a line annotated //pam:slowpath-ok <reason> allows that one construct
//     (and does not descend into calls on it) — the explicit, reasoned
//     allowlist for deliberate exceptions like the SendChain close-guard
//     read-lock.
//
// Interface method calls and calls through function values are not
// resolvable statically and pass; the NF ProcessBatch contract is guarded
// by its own batch tests instead.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPath is the //pam:hotpath invariant analyzer.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//pam:hotpath functions must not block, take locks, read wall clocks or allocate (transitively)",
	Run:  runHotPath,
}

// hotpathBannedFuncs maps types.Func.FullName() of known blocking or
// clock-reading functions to a short reason.
var hotpathBannedFuncs = map[string]string{
	"time.Now":       "wall-clock read",
	"time.Sleep":     "sleeps",
	"time.After":     "blocks and allocates a timer",
	"time.Tick":      "allocates a ticker",
	"time.NewTimer":  "allocates a timer",
	"time.NewTicker": "allocates a ticker",

	"(*sync.Mutex).Lock":       "mutex acquisition",
	"(*sync.Mutex).TryLock":    "mutex acquisition",
	"(*sync.RWMutex).Lock":     "mutex acquisition",
	"(*sync.RWMutex).TryLock":  "mutex acquisition",
	"(*sync.RWMutex).RLock":    "read-lock acquisition",
	"(*sync.RWMutex).TryRLock": "read-lock acquisition",
	"(sync.Locker).Lock":       "mutex acquisition",

	"(*sync.Cond).Wait":      "condition wait",
	"(*sync.Cond).Signal":    "condition signal",
	"(*sync.Cond).Broadcast": "condition broadcast",
	"(*sync.WaitGroup).Wait": "waitgroup wait",

	"runtime.Gosched": "yields the processor",
	"runtime.GC":      "forces a collection",
}

// hotpathBannedPkgs are packages a hot path may not call into at all.
var hotpathBannedPkgs = map[string]string{
	"fmt":    "formatting allocates",
	"log":    "logging allocates and locks",
	"errors": "error construction allocates",
}

func runHotPath(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !FuncDirective(fd, "hotpath") {
				continue
			}
			if fd.Body == nil {
				continue
			}
			w := &hotpathWalker{
				pass:     pass,
				rootName: funcDisplayName(pass, fd),
				visited:  make(map[*ast.FuncDecl]bool),
				reported: make(map[token.Pos]bool),
			}
			w.checkFunc(pass.Pkg, fd, nil)
		}
	}
	return nil
}

// hotpathWalker carries one root's transitive walk.
type hotpathWalker struct {
	pass     *Pass
	rootName string
	visited  map[*ast.FuncDecl]bool
	reported map[token.Pos]bool
}

// report emits one diagnostic per position per root, with the call chain
// from the root when the violation sits in a transitive callee.
func (w *hotpathWalker) report(pos token.Pos, chain []string, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	msg := "hot path " + w.rootName + ": " + fmt.Sprintf(format, args...)
	if len(chain) > 0 {
		msg += " (via " + strings.Join(chain, " → ") + ")"
	}
	w.pass.Reportf(pos, "%s", msg)
}

// checkFunc walks one function body in the package that declares it.
func (w *hotpathWalker) checkFunc(pkg *Package, fd *ast.FuncDecl, chain []string) {
	if w.visited[fd] || fd.Body == nil {
		return
	}
	w.visited[fd] = true
	w.checkBody(pkg, fd.Body, chain)
}

// allowed reports whether the line holding pos carries //pam:slowpath-ok.
func (w *hotpathWalker) allowed(pkg *Package, pos token.Pos) bool {
	return pkg.LineAllowed(w.pass.Prog.Fset, pos, "slowpath-ok")
}

// checkBody walks a statement tree, flagging banned constructs and
// descending into in-module callees.
func (w *hotpathWalker) checkBody(pkg *Package, body ast.Node, chain []string) {
	info := pkg.TypesInfo
	// Comm statements of any select are judged at the SelectStmt level (a
	// select with a default is non-blocking; one without is flagged — or
	// allowed — as a unit); collect them first so the generic send/receive
	// checks skip them.
	nonblocking := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				nonblocking[cc.Comm] = true
				// A receive comm is an ExprStmt or AssignStmt wrapping
				// the arrow expression; mark the expression too.
				switch s := cc.Comm.(type) {
				case *ast.ExprStmt:
					nonblocking[s.X] = true
				case *ast.AssignStmt:
					for _, r := range s.Rhs {
						nonblocking[r] = true
					}
				}
			}
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault && !w.allowed(pkg, n.Pos()) {
				w.report(n.Pos(), chain, "blocking select")
				return false
			}
		case *ast.SendStmt:
			if !nonblocking[n] && !w.allowed(pkg, n.Pos()) {
				w.report(n.Pos(), chain, "blocking channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !nonblocking[n] && !w.allowed(pkg, n.Pos()) {
				w.report(n.Pos(), chain, "blocking channel receive")
			}
			if cl, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND && !w.allowed(pkg, n.Pos()) {
				_ = cl
				w.report(n.Pos(), chain, "allocates: address of composite literal")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && !w.allowed(pkg, n.Pos()) {
					w.report(n.Pos(), chain, "range over channel")
				}
			}
		case *ast.GoStmt:
			if !w.allowed(pkg, n.Pos()) {
				w.report(n.Pos(), chain, "spawns goroutine")
			}
		case *ast.FuncLit:
			if !w.allowed(pkg, n.Pos()) {
				w.report(n.Pos(), chain, "allocates: func literal")
			}
			return false // flagged (or allowed) as a unit; don't walk inside
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil && !w.allowed(pkg, n.Pos()) {
				switch t.Underlying().(type) {
				case *types.Slice:
					w.report(n.Pos(), chain, "allocates: slice literal")
				case *types.Map:
					w.report(n.Pos(), chain, "allocates: map literal")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.TypeOf(n); t != nil && !w.allowed(pkg, n.Pos()) {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						// Constant folding is free; only flag runtime concat.
						if info.Types[n].Value == nil {
							w.report(n.Pos(), chain, "allocates: string concatenation")
						}
					}
				}
			}
		case *ast.CallExpr:
			w.checkCall(pkg, n, chain)
			// Arguments and the call target still need walking; checkCall
			// only resolves the callee.
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkCall resolves one call expression: banned target, allocation via
// conversion, or a descent into an in-module callee.
func (w *hotpathWalker) checkCall(pkg *Package, call *ast.CallExpr, chain []string) {
	info := pkg.TypesInfo

	// Type conversions: string<->[]byte allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if to != nil && from != nil && isStringByteConv(to, from) && !w.allowed(pkg, call.Pos()) {
			w.report(call.Pos(), chain, "allocates: string/[]byte conversion")
		}
		return
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		// Builtins: make and new allocate.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Builtin); ok {
				switch obj.Name() {
				case "make", "new":
					if !w.allowed(pkg, call.Pos()) {
						w.report(call.Pos(), chain, "allocates: %s", obj.Name())
					}
				}
			}
		}
		return // dynamic call through a func value: not resolvable
	}

	full := fn.FullName()
	if reason, ok := hotpathBannedFuncs[full]; ok {
		if !w.allowed(pkg, call.Pos()) {
			w.report(call.Pos(), chain, "calls %s (%s)", shortName(full), reason)
		}
		return
	}
	if fn.Pkg() != nil {
		if reason, ok := hotpathBannedPkgs[fn.Pkg().Path()]; ok {
			if !w.allowed(pkg, call.Pos()) {
				w.report(call.Pos(), chain, "calls %s (%s)", shortName(full), reason)
			}
			return
		}
	}

	// Descend into in-module callees with bodies.
	declPkg, decl := w.pass.Prog.FuncDecl(fn)
	if decl == nil {
		return // stdlib leaf, interface method, or bodyless declaration
	}
	if FuncDirective(decl, "hotpath") {
		return // a hot-path root of its own; checked separately
	}
	if FuncDirective(decl, "slowpath") {
		return // guarded slow-path entry: allowed, not descended
	}
	if w.allowed(pkg, call.Pos()) {
		return // the call line is explicitly allowed; don't descend
	}
	w.checkFunc(declPkg, decl, append(chain[:len(chain):len(chain)], decl.Name.Name))
}

// calleeFunc resolves a call's static target function, or nil for builtins
// and dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					return nil // dynamic dispatch: not statically resolvable
				}
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // package-qualified call
		}
	}
	return nil
}

// isStringByteConv reports a string <-> []byte (or []rune) conversion.
func isStringByteConv(to, from types.Type) bool {
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// funcDisplayName renders a declaration as "(*Type).Method" or "Func".
func funcDisplayName(pass *Pass, fd *ast.FuncDecl) string {
	if fn, ok := pass.Pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		return shortName(fn.FullName())
	}
	return fd.Name.Name
}

// shortName strips module path prefixes from a FullName for readability:
// "(*repro/internal/emul.gate).tryTake" → "(*emul.gate).tryTake".
func shortName(full string) string {
	for {
		i := strings.LastIndexByte(full, '/')
		if i < 0 {
			return full
		}
		// Remove back to the preceding separator.
		j := strings.LastIndexAny(full[:i], "(* ")
		full = full[:j+1] + full[i+1:]
	}
}
