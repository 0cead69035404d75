package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-load view lockorder runs on: a static call
// graph plus, per function, a summary of the mutexes it acquires,
// propagated to a fixpoint over the graph.
//
// Soundness (documented in DESIGN.md §5f): the graph is conservative at
// interface call sites — a call through interface type I resolves to every
// in-module method implementing I — and *incomplete* at dynamic function
// values: calling a stored func value, a callback parameter, or a func
// literal bound to a variable resolves to nothing, so effects behind such
// calls are missed. Func literal bodies are still scanned standalone (their
// own lock acquisitions and calls under their own locks produce edges), an
// immediately-invoked literal is inlined into its enclosing function, `go`
// statements sever the held-lock context (the goroutine does not run under
// the caller's locks), and deferred calls are skipped (a deferred Unlock
// keeps its lock held to the end of the function).

// Program is the interprocedural view over one Load (targets plus their
// cached dependency closure).
type Program struct {
	Pkgs  []*Package
	Fset  *token.FileSet
	Ranks *RankTable

	funcs map[*types.Func]*FuncInfo

	namedTypes []types.Type // all in-module named types, for interface resolution
	ifaceCache map[string][]*types.Func
}

// FuncInfo is one function's facts and propagated summary.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	acquires []acqSite
	calls    []callSite

	sumAcquires map[types.Object]witness // lock -> one path to its acquisition
}

// witness is one example call chain (below the summarized function) leading
// to an acquisition, with the acquisition's position and method.
type witness struct {
	path   []string // display names of the callee chain; empty = direct
	pos    token.Pos
	method string // Lock or RLock
}

// heldLock is one mutex held at a program point.
type heldLock struct {
	obj    types.Object // resolved field/var; nil for an embedded or computed mutex
	key    string       // rendered expression, e.g. "t.mu"
	method string       // Lock or RLock
	pos    token.Pos
}

type acqSite struct {
	obj      types.Object
	method   string
	pos      token.Pos
	held     []heldLock
	detached bool // inside a func literal: edges count, summary does not
}

type callSite struct {
	callees  []*types.Func
	pos      token.Pos
	held     []heldLock
	detached bool
}

// NewProgram builds the call graph and fixpoint summaries over pkgs and
// their cached module-internal dependencies.
func NewProgram(pkgs []*Package) *Program {
	all := append(append([]*Package(nil), pkgs...), depPackages(pkgs)...)
	var fset *token.FileSet
	if len(all) > 0 {
		fset = all[0].Fset
	}
	prog := &Program{
		Pkgs:       all,
		Fset:       fset,
		Ranks:      collectRanks(all),
		funcs:      make(map[*types.Func]*FuncInfo),
		ifaceCache: make(map[string][]*types.Func),
	}
	prog.collectTypes()
	prog.collectFuncs()
	prog.propagate()
	return prog
}

func (prog *Program) collectTypes() {
	for _, pkg := range prog.Pkgs {
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || tn.Parent() == nil || tn.Parent() != tn.Pkg().Scope() {
				continue
			}
			prog.namedTypes = append(prog.namedTypes, tn.Type())
		}
	}
	sort.Slice(prog.namedTypes, func(i, j int) bool {
		return prog.namedTypes[i].String() < prog.namedTypes[j].String()
	})
}

// collectFuncs registers every function before it walks any body: a call
// resolves only to a registered function, so a body walked earlier would
// miss every callee declared after it in load order.
func (prog *Program) collectFuncs() {
	var infos []*FuncInfo
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				info := &FuncInfo{Decl: fn, Pkg: pkg}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					info.Obj = obj
					prog.funcs[obj] = info
				}
				infos = append(infos, info)
			}
		}
	}
	for _, info := range infos {
		w := &factWalker{prog: prog, pkg: info.Pkg, fn: info}
		w.stmts(info.Decl.Body.List, map[string]heldLock{})
	}
}

// displayName renders a function for messages with its package's name in
// place of its path: "(*madeus/internal/wal.Log).Commit" reads
// "(*wal.Log).Commit".
func displayName(obj *types.Func) string {
	name := obj.FullName()
	if pkg := obj.Pkg(); pkg != nil {
		name = strings.Replace(name, pkg.Path()+".", pkg.Name()+".", 1)
	}
	return name
}

// lockDesc renders a lock for messages: its rank name when annotated,
// otherwise Type.field.
func (prog *Program) lockDesc(obj types.Object, key string) string {
	if r, ok := prog.Ranks.Rank(obj); ok {
		return r.Name
	}
	if obj != nil {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return fieldOwner(prog, v) + "." + v.Name()
		}
		return obj.Name()
	}
	return key
}

// fieldOwner finds the named type declaring field v, for display.
func fieldOwner(prog *Program, v *types.Var) string {
	for _, t := range prog.namedTypes {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				if n, ok := t.(*types.Named); ok {
					return n.Obj().Name()
				}
			}
		}
	}
	return "?"
}

// propagate runs the fixpoint: each function's summary absorbs its callees'
// acquisitions, keeping one witness path per lock.
func (prog *Program) propagate() {
	infos := prog.sortedFuncs()
	for _, fi := range infos {
		fi.sumAcquires = make(map[types.Object]witness)
		for _, a := range fi.acquires {
			if a.detached || a.obj == nil {
				continue
			}
			if _, ok := fi.sumAcquires[a.obj]; !ok {
				fi.sumAcquires[a.obj] = witness{pos: a.pos, method: a.method}
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			for _, cs := range fi.calls {
				if cs.detached {
					continue
				}
				for _, callee := range cs.callees {
					g := prog.funcs[callee]
					if g == fi {
						continue
					}
					for lock, w := range g.sumAcquires {
						if _, ok := fi.sumAcquires[lock]; !ok {
							fi.sumAcquires[lock] = witness{path: prependPath(displayName(callee), w.path), pos: w.pos, method: w.method}
							changed = true
						}
					}
				}
			}
		}
	}
}

func (prog *Program) sortedFuncs() []*FuncInfo {
	infos := make([]*FuncInfo, 0, len(prog.funcs))
	for _, fi := range prog.funcs {
		infos = append(infos, fi)
	}
	sort.Slice(infos, func(i, j int) bool {
		return infos[i].Obj.FullName() < infos[j].Obj.FullName()
	})
	return infos
}

func prependPath(head string, rest []string) []string {
	out := make([]string, 0, len(rest)+1)
	out = append(out, head)
	return append(out, rest...)
}

// --- per-function fact extraction ---

// factWalker walks one function body tracking the set of held locks, and
// records each acquisition and each resolvable call with that set.
type factWalker struct {
	prog     *Program
	pkg      *Package
	fn       *FuncInfo
	detached bool
}

func (w *factWalker) snapshot(held map[string]heldLock) []heldLock {
	if len(held) == 0 {
		return nil
	}
	out := make([]heldLock, 0, len(held))
	for _, h := range held {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func copyHeldLocks(held map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// lockObj resolves the mutex expression of a Lock/Unlock call to its
// declared field or var object.
func (w *factWalker) lockObj(e ast.Expr) types.Object {
	info := w.pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.ParenExpr:
		return w.lockObj(e.X)
	case *ast.StarExpr:
		return w.lockObj(e.X)
	}
	return nil
}

// lockFact classifies a call as a Lock/Unlock-family operation on a
// sync.Mutex or sync.RWMutex, resolving the mutex identity.
func (w *factWalker) lockFact(call *ast.CallExpr) (key string, obj types.Object, method string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", nil, "", false
	}
	key = exprString(sel.X)
	if key == "" || !isMutex(w.pkg.Info.TypeOf(sel.X)) {
		return "", nil, "", false
	}
	obj = w.lockObj(sel.X)
	if v, isVar := obj.(*types.Var); !isVar || !isMutex(v.Type()) {
		obj = nil // an embedded mutex's promoted method: key identity only
	}
	return key, obj, sel.Sel.Name, true
}

func (w *factWalker) stmts(list []ast.Stmt, held map[string]heldLock) {
	for _, st := range list {
		w.stmt(st, held)
	}
}

func (w *factWalker) stmt(st ast.Stmt, held map[string]heldLock) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if key, obj, method, isLock := w.lockFact(call); isLock {
				switch method {
				case "Lock", "RLock":
					w.fn.acquires = append(w.fn.acquires, acqSite{
						obj: obj, method: method, pos: call.Pos(),
						held: w.snapshot(held), detached: w.detached,
					})
					held[key] = heldLock{obj: obj, key: key, method: method, pos: call.Pos()}
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return
			}
		}
		w.expr(st.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held through the function (the
		// release runs at return); other deferred calls are skipped.
	case *ast.GoStmt:
		// The goroutine does not run under the caller's locks, and its
		// effects do not propagate to the caller's summary. Named
		// functions it calls are analyzed standalone; a literal body is
		// scanned detached.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.detachedScan(lit)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, copyHeldLocks(held))
			}
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		w.expr(st.Cond, held)
		w.stmts(st.Body.List, copyHeldLocks(held))
		if st.Else != nil {
			w.stmt(st.Else, copyHeldLocks(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Cond != nil {
			w.expr(st.Cond, held)
		}
		// A lock the body takes and keeps is held on the next iteration
		// and after the loop.
		body := copyHeldLocks(held)
		w.stmts(st.Body.List, body)
		for k, v := range body {
			if _, ok := held[k]; !ok {
				held[k] = v
			}
		}
	case *ast.RangeStmt:
		w.expr(st.X, held)
		w.stmts(st.Body.List, copyHeldLocks(held))
	case *ast.BlockStmt:
		w.stmts(st.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Tag != nil {
			w.expr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeldLocks(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeldLocks(held))
			}
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, held)
					}
				}
			}
		}
	}
}

// expr records the call sites inside e. Func literals are inlined when
// immediately invoked, otherwise scanned detached.
func (w *factWalker) expr(e ast.Expr, held map[string]heldLock) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.detachedScan(n)
			return false
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately-invoked literal: inline its body under the
				// current held set.
				w.stmts(lit.Body.List, copyHeldLocks(held))
				for _, arg := range n.Args {
					w.expr(arg, held)
				}
				return false
			}
			if callees := w.resolveCallees(n); len(callees) > 0 {
				w.fn.calls = append(w.fn.calls, callSite{
					callees: callees, pos: n.Pos(),
					held: w.snapshot(held), detached: w.detached,
				})
			}
		}
		return true
	})
}

// detachedScan walks a func literal body with an empty held set: locks
// acquired inside it still produce ordering edges (the code runs somewhere),
// but nothing propagates into the enclosing function's summary.
func (w *factWalker) detachedScan(lit *ast.FuncLit) {
	inner := &factWalker{prog: w.prog, pkg: w.pkg, fn: w.fn, detached: true}
	inner.stmts(lit.Body.List, map[string]heldLock{})
}

// exprString renders a (simple) expression as source-ish text, enough to key
// lock identity ("t.mu", "ch.mu", "p.herdMu"). Unrenderable expressions
// return "".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprString(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		if base := exprString(e.X); base != "" {
			return base + "[...]"
		}
	}
	return ""
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex, or a pointer to
// one.
func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// resolveCallees maps a call expression to in-module function declarations:
// direct calls resolve exactly; interface method calls resolve to every
// in-module implementation (conservative); func values resolve to nothing
// (see the soundness note at the top of the file).
func (w *factWalker) resolveCallees(call *ast.CallExpr) []*types.Func {
	info := w.pkg.Info
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ = sel.Obj().(*types.Func)
			if recv := sel.Recv(); fn != nil && types.IsInterface(recv) {
				return w.ifaceImpls(recv.Underlying().(*types.Interface), fn)
			}
		} else {
			fn, _ = info.Uses[fun.Sel].(*types.Func) // package-qualified pkg.F()
		}
	}
	if fn == nil || w.prog.funcs[fn] == nil {
		return nil
	}
	return []*types.Func{fn}
}

// ifaceImpls returns every in-module method named like m whose receiver
// type implements iface (class-hierarchy resolution), memoized per
// interface+name.
func (w *factWalker) ifaceImpls(iface *types.Interface, m *types.Func) []*types.Func {
	key := iface.String() + "\x00" + m.Name()
	prog := w.prog
	if impls, ok := prog.ifaceCache[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, t := range prog.namedTypes {
		if types.IsInterface(t) {
			continue
		}
		impl := types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
		if !impl {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if prog.funcs[fn] != nil {
			impls = append(impls, fn)
		}
	}
	prog.ifaceCache[key] = impls
	return impls
}
