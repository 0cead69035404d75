package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// This file builds the whole-load view the interprocedural analyzers
// (lockorder, holdblock) run on: a static call graph plus, per function, a
// summary of the mutexes it acquires and the blocking operations it can
// reach, propagated to a fixpoint over the graph.
//
// Soundness (documented in DESIGN.md §5f): the graph is conservative at
// interface call sites — a call through interface type I resolves to every
// in-module method implementing I — and *incomplete* at dynamic function
// values: calling a stored func value, a callback parameter, or a func
// literal bound to a variable resolves to nothing, so effects behind such
// calls are missed. Func literal bodies are still scanned standalone (their
// own lock acquisitions produce edges), an immediately-invoked literal is
// inlined into its enclosing function, `go` statements sever the held-lock
// context (the goroutine does not run under the caller's locks), and
// deferred calls contribute only their Lock/Unlock bookkeeping, exactly
// like the intra-procedural lockdiscipline rule.

// Program is the interprocedural view over one Load (targets plus their
// cached dependency closure).
type Program struct {
	Pkgs  []*Package
	Fset  *token.FileSet
	Ranks *RankTable

	funcs map[*types.Func]*FuncInfo

	namedTypes []types.Type // all in-module named types, for interface resolution
	ifaceCache map[string][]*types.Func

	mu       sync.Mutex
	findings map[string][]Diagnostic // memoized per interprocedural rule
}

// FuncInfo is one function's facts and propagated summary.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	acquires []acqSite
	blocks   []blockSite
	calls    []callSite

	sumAcquires map[types.Object]witness // annotated-or-resolved lock -> path
	sumBlocks   map[string]witness       // blocking kind -> path
}

// witness is one example call chain (below the summarized function) leading
// to an effect, with the ultimate site's position.
type witness struct {
	path   []string // display names of the callee chain; empty = direct
	pos    token.Pos
	method string // acquisition method (Lock/RLock); empty for blocking kinds
}

// heldLock is one mutex held at a program point.
type heldLock struct {
	obj    types.Object // resolved field/var; nil when only name-matched
	key    string       // rendered expression, e.g. "t.mu"
	method string       // Lock or RLock
	pos    token.Pos
}

type acqSite struct {
	obj      types.Object
	key      string
	method   string
	pos      token.Pos
	held     []heldLock
	detached bool // inside a func literal: edges count, summary does not
}

type blockSite struct {
	kind     string
	pos      token.Pos
	held     []heldLock
	detached bool
}

type callSite struct {
	callees  []*types.Func
	display  string // rendered callee expression, for messages
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
		findings:   make(map[string][]Diagnostic),
	}
	prog.collectTypes()
	prog.collectFuncs()
	prog.propagate()
	return prog
}

func (prog *Program) collectTypes() {
	for _, pkg := range prog.Pkgs {
		if pkg.Info == nil {
			continue
		}
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

func (prog *Program) collectFuncs() {
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				info := &FuncInfo{Decl: fn, Pkg: pkg}
				if pkg.Info != nil {
					if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
						info.Obj = obj
						prog.funcs[obj] = info
					}
				}
				w := &factWalker{prog: prog, pkg: pkg, fn: info}
				w.stmts(fn.Body.List, map[string]heldLock{})
			}
		}
	}
}

// displayName renders a function for messages, trimming the module prefix.
func displayName(obj *types.Func) string {
	name := obj.FullName()
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		// "madeus/internal/wal.(*Log).Commit" -> "wal.(*Log).Commit"
		name = name[i+1:]
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
// acquisitions and blocking reach, keeping one witness path per effect.
func (prog *Program) propagate() {
	infos := make([]*FuncInfo, 0, len(prog.funcs))
	for _, fi := range prog.funcs {
		infos = append(infos, fi)
	}
	sort.Slice(infos, func(i, j int) bool {
		return infos[i].Obj.FullName() < infos[j].Obj.FullName()
	})

	for _, fi := range infos {
		fi.sumAcquires = make(map[types.Object]witness)
		fi.sumBlocks = make(map[string]witness)
		for _, a := range fi.acquires {
			if a.detached || a.obj == nil {
				continue
			}
			if _, ok := fi.sumAcquires[a.obj]; !ok {
				fi.sumAcquires[a.obj] = witness{pos: a.pos, method: a.method}
			}
		}
		for _, b := range fi.blocks {
			if b.detached {
				continue
			}
			if _, ok := fi.sumBlocks[b.kind]; !ok {
				fi.sumBlocks[b.kind] = witness{pos: b.pos}
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
					if g == nil || g == fi {
						continue
					}
					gname := displayName(callee)
					for lock, w := range g.sumAcquires {
						if _, ok := fi.sumAcquires[lock]; !ok {
							fi.sumAcquires[lock] = witness{path: prependPath(gname, w.path), pos: w.pos, method: w.method}
							changed = true
						}
					}
					for kind, w := range g.sumBlocks {
						if _, ok := fi.sumBlocks[kind]; !ok {
							fi.sumBlocks[kind] = witness{path: prependPath(gname, w.path), pos: w.pos}
							changed = true
						}
					}
				}
			}
		}
	}
}

func prependPath(head string, rest []string) []string {
	out := make([]string, 0, len(rest)+1)
	out = append(out, head)
	return append(out, rest...)
}

// cached returns rule's memoized program-wide findings, computing them once.
func (prog *Program) cached(rule string, compute func() []Diagnostic) []Diagnostic {
	prog.mu.Lock()
	defer prog.mu.Unlock()
	if d, ok := prog.findings[rule]; ok {
		return d
	}
	d := compute()
	prog.findings[rule] = d
	return d
}

// --- per-function fact extraction ---

// factWalker mirrors lockdiscipline's held-set statement walk, but emits
// acquisition, blocking, and call-site facts instead of diagnostics.
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
// declared field or var object, when type info allows.
func (w *factWalker) lockObj(e ast.Expr) types.Object {
	info := w.pkg.Info
	if info == nil {
		return nil
	}
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

func (w *factWalker) typeOf(e ast.Expr) types.Type {
	if w.pkg.Info == nil {
		return nil
	}
	return w.pkg.Info.TypeOf(e)
}

// lockFact classifies a call as a Lock/Unlock-family operation, resolving
// the mutex identity.
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
	if key == "" {
		return "", nil, "", false
	}
	if t := w.typeOf(sel.X); t != nil {
		if !isSyncType(t, "Mutex") && !isSyncType(t, "RWMutex") {
			return "", nil, "", false
		}
	} else if !muName(key) {
		return "", nil, "", false
	}
	obj = w.lockObj(sel.X)
	if v, okVar := obj.(*types.Var); obj != nil && (!okVar || (!isSyncType(v.Type(), "Mutex") && !isSyncType(v.Type(), "RWMutex"))) {
		obj = nil // embedded sync.Mutex promotions etc.: fall back to key identity
	}
	return key, obj, sel.Sel.Name, true
}

func muName(rendered string) bool {
	last := rendered
	if i := strings.LastIndexByte(last, '.'); i >= 0 {
		last = last[i+1:]
	}
	lower := strings.ToLower(last)
	return lower == "mu" || strings.HasSuffix(lower, "mu") || strings.HasSuffix(lower, "mutex") || strings.HasSuffix(lower, "lock")
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
						obj: obj, key: key, method: method, pos: call.Pos(),
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
		// Deferred Unlock keeps the lock held through the function (the
		// release runs at return); other deferred calls are skipped, as
		// in lockdiscipline.
	case *ast.GoStmt:
		// The goroutine does not run under the caller's locks, and its
		// effects do not propagate to the caller's summary. Named
		// functions it calls are analyzed standalone; a literal body is
		// scanned detached below (via expr's FuncLit handling).
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.detachedScan(lit)
		}
	case *ast.SendStmt:
		w.block("channel send", st.Pos(), held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block("select", st.Pos(), held)
		}
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

// expr records blocking ops and call sites inside e. Func literals are
// inlined when immediately invoked, otherwise scanned detached.
func (w *factWalker) expr(e ast.Expr, held map[string]heldLock) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.detachedScan(n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.block("channel receive", n.Pos(), held)
			}
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately-invoked literal: inline its body under the
				// current held set; arguments are scanned by Inspect.
				w.stmts(lit.Body.List, copyHeldLocks(held))
				for _, arg := range n.Args {
					w.expr(arg, held)
				}
				return false
			}
			if kind, ok := blockingKind(n, w.typeOf); ok {
				w.block(kind, n.Pos(), held)
			}
			if callees, display := w.resolveCallees(n); len(callees) > 0 {
				w.fn.calls = append(w.fn.calls, callSite{
					callees: callees, display: display, pos: n.Pos(),
					held: w.snapshot(held), detached: w.detached,
				})
			}
		}
		return true
	})
}

func (w *factWalker) block(kind string, pos token.Pos, held map[string]heldLock) {
	w.fn.blocks = append(w.fn.blocks, blockSite{
		kind: kind, pos: pos, held: w.snapshot(held), detached: w.detached,
	})
}

// detachedScan walks a func literal body with an empty held set: locks
// acquired inside it still produce ordering edges (the code runs somewhere),
// but nothing propagates into the enclosing function's summary.
func (w *factWalker) detachedScan(lit *ast.FuncLit) {
	inner := &factWalker{prog: w.prog, pkg: w.pkg, fn: w.fn, detached: true}
	inner.stmts(lit.Body.List, map[string]heldLock{})
}

// condWait is blockingKind's name for sync.Cond.Wait, which releases its
// mutex while it waits: holdblock counts it, lockdiscipline exempts it.
const condWait = "sync.Cond.Wait"

// blockingKind classifies known blocking primitives and module boundaries
// (the wire client round trips, the WAL commit wait, pacing, the transfer
// budget) that findings name explicitly. It is the one list both
// lockdiscipline and holdblock use. typeOf may return nil (degraded mode);
// receivers then classify by name. For holdblock's summaries everything
// else blocks only through primitives its own body reaches, which
// propagation covers.
func blockingKind(call *ast.CallExpr, typeOf func(ast.Expr) types.Type) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if base, ok := sel.X.(*ast.Ident); ok {
		switch base.Name + "." + name {
		case "time.Sleep":
			return "time.Sleep", true
		case "simlat.IO":
			return "simulated I/O (simlat.IO)", true
		case "net.Dial", "net.DialTimeout", "net.Listen":
			return "net." + name, true
		}
	}
	recvType := typeOf(sel.X)
	switch name {
	case "Wait":
		if recvType != nil {
			switch {
			case isSyncType(recvType, "Cond"):
				return condWait, true
			case isSyncType(recvType, "WaitGroup"):
				return "WaitGroup.Wait", true
			case isModuleType(recvType, "internal/flow", "Throttle"):
				return "pacing wait (flow.Throttle.Wait)", true
			}
			return "Wait", true
		}
		if strings.Contains(strings.ToLower(exprString(sel.X)), "cond") {
			return condWait, true
		}
		return "Wait", true
	case "fsync", "Fsync":
		return "WAL fsync", true
	case "Commit":
		if isModuleType(recvType, "internal/wal", "Log") {
			return "WAL group-commit wait", true
		}
	case "Exec", "ExecReply", "ExecStream", "ExecRetry":
		if isModuleType(recvType, "internal/wire", "Client") {
			return "wire round-trip (Client." + name + ")", true
		}
	case "Acquire":
		if isModuleType(recvType, "internal/flow", "TransferBudget") {
			return "transfer-budget wait (TransferBudget.Acquire)", true
		}
	}
	return "", false
}

// isModuleType reports whether t is the named type pkgSuffix.name (or a
// pointer to it) from this module.
func isModuleType(t types.Type, pkgSuffix, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(n.Obj().Pkg().Path(), pkgSuffix) && n.Obj().Name() == name
}

// resolveCallees maps a call expression to in-module function declarations:
// direct calls resolve exactly; interface method calls resolve to every
// in-module implementation (conservative); func values resolve to nothing
// (see the soundness note at the top of the file).
func (w *factWalker) resolveCallees(call *ast.CallExpr) ([]*types.Func, string) {
	info := w.pkg.Info
	if info == nil {
		return nil, ""
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if w.prog.funcs[fn] != nil {
				return []*types.Func{fn}, fun.Name
			}
		}
	case *ast.SelectorExpr:
		display := exprString(fun)
		if display == "" {
			display = fun.Sel.Name
		}
		if sel := info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil, ""
			}
			recv := sel.Recv()
			if types.IsInterface(recv) {
				return w.ifaceImpls(recv.Underlying().(*types.Interface), fn.Name()), display
			}
			if w.prog.funcs[fn] != nil {
				return []*types.Func{fn}, display
			}
			return nil, ""
		}
		// Package-qualified call: pkg.F().
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && w.prog.funcs[fn] != nil {
			return []*types.Func{fn}, display
		}
	}
	return nil, ""
}

// ifaceImpls returns every in-module method named m whose receiver type
// implements iface (class-hierarchy resolution), memoized per interface+name.
func (w *factWalker) ifaceImpls(iface *types.Interface, m string) []*types.Func {
	key := iface.String() + "\x00" + m
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
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, nil, m)
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
