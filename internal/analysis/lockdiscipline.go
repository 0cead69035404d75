package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// LockDiscipline flags blocking operations performed while a named mutex is
// held, and Lock calls with no matching Unlock later in the function.
//
// Blocking operations: channel send/receive, select without default, and
// the calls holdblock's classifier (blockingKind) names — WaitGroup- and
// propagator-style Wait, time.Sleep, net dial/listen, simlat.IO, WAL
// fsync/Commit, pacing and transfer-budget waits, and every wire.Client
// round trip (Exec, ExecReply, ExecStream, ExecRetry). sync.Cond.Wait is
// exempt — it releases the mutex while waiting, which is exactly the
// sanctioned pattern (tenant critical region, B-CON herd).
//
// The check is an intra-procedural approximation: branch bodies are scanned
// with a copy of the held-lock set, sequential statements thread it through,
// and an Unlock anywhere later in the function satisfies the release
// obligation. Helpers that intentionally return holding a lock belong on a
// `Locked`-suffixed name or under a //madeusvet:ignore directive.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no blocking calls while a mutex is held; every Lock needs a path to Unlock",
	Run:  runLockDiscipline,
}

// lockOp is one Lock/Unlock-family call on a rendered lock expression.
type lockOp struct {
	key    string // rendered lock expr, e.g. "t.mu"
	method string // Lock, Unlock, RLock, RUnlock
	pos    token.Pos
	defer_ bool
}

func runLockDiscipline(pass *Pass) {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockRelease(pass, fn)
			s := &lockScanner{pass: pass}
			s.stmts(fn.Body.List, map[string]token.Pos{})
		}
	}
}

// lockCall classifies a call as a Lock/Unlock-family operation on a
// mutex-like receiver; ok is false otherwise.
func lockCall(pass *Pass, call *ast.CallExpr) (op lockOp, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return op, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return op, false
	}
	key := exprString(sel.X)
	if key == "" {
		return op, false
	}
	if !isMutexExpr(pass, sel.X, key) {
		return op, false
	}
	return lockOp{key: key, method: sel.Sel.Name, pos: call.Pos()}, true
}

// isMutexExpr reports whether e looks like a mutex: sync.Mutex/RWMutex by
// type when info is available, or a mu-ish name otherwise.
func isMutexExpr(pass *Pass, e ast.Expr, rendered string) bool {
	if t := pass.TypeOf(e); t != nil {
		return isSyncType(t, "Mutex") || isSyncType(t, "RWMutex")
	}
	last := rendered
	if i := strings.LastIndexByte(last, '.'); i >= 0 {
		last = last[i+1:]
	}
	lower := strings.ToLower(last)
	return lower == "mu" || strings.HasSuffix(lower, "mu") || strings.HasSuffix(lower, "mutex") || strings.HasSuffix(lower, "lock")
}

// checkLockRelease verifies every Lock in fn has a matching Unlock of the
// same lock later in source order (or deferred anywhere).
func checkLockRelease(pass *Pass, fn *ast.FuncDecl) {
	var ops []lockOp
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if op, ok := lockCall(pass, n); ok {
				ops = append(ops, op)
			}
		case *ast.DeferStmt:
			if op, ok := lockCall(pass, n.Call); ok {
				op.defer_ = true
				ops = append(ops, op)
			}
			return false // the deferred call was handled; skip re-visiting
		}
		return true
	})
	release := map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}
	for _, op := range ops {
		want, isAcquire := release[op.method]
		if !isAcquire {
			continue
		}
		found := false
		for _, other := range ops {
			if other.key == op.key && other.method == want && (other.defer_ || other.pos > op.pos) {
				found = true
				break
			}
		}
		if !found {
			pass.Reportf(op.pos, "%s.%s() with no %s on any later path in %s; helpers that return holding the lock need a Locked suffix or an ignore directive",
				op.key, op.method, want, fn.Name.Name)
		}
	}
}

// lockScanner walks statements tracking which locks are held.
type lockScanner struct {
	pass *Pass
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (s *lockScanner) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, st := range list {
		s.stmt(st, held)
	}
}

func (s *lockScanner) stmt(st ast.Stmt, held map[string]token.Pos) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if op, ok := lockCall(s.pass, call); ok {
				switch op.method {
				case "Lock", "RLock":
					held[op.key] = op.pos
				case "Unlock", "RUnlock":
					delete(held, op.key)
				}
				return
			}
		}
		s.expr(st.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock satisfies the release obligation but runs only
		// at return — the lock stays held through the rest of the function,
		// so the held set keeps it.
	case *ast.GoStmt:
		// The goroutine does not run under the caller's locks; argument
		// evaluation is non-blocking.
	case *ast.SendStmt:
		s.reportBlocked(st.Pos(), "channel send", held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			s.reportBlocked(st.Pos(), "select", held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		s.expr(st.Cond, held)
		s.stmts(st.Body.List, copyHeld(held))
		if st.Else != nil {
			s.stmt(st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			s.expr(st.Cond, held)
		}
		body := copyHeld(held)
		s.stmts(st.Body.List, body)
		// A loop body that acquires a lock and loops back still holds it
		// at the next blocking op; merge acquisitions that survived the
		// body into the loop's view. (Releases inside branches were
		// handled within the copy.)
		for k, v := range body {
			if _, ok := held[k]; !ok {
				held[k] = v
			}
		}
	case *ast.RangeStmt:
		s.expr(st.X, held)
		s.stmts(st.Body.List, copyHeld(held))
	case *ast.BlockStmt:
		s.stmts(st.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		if st.Tag != nil {
			s.expr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.expr(e, held)
					}
				}
			}
		}
	}
}

// expr reports blocking operations inside e (receives and blocking calls),
// without descending into func literals — their bodies run elsewhere.
func (s *lockScanner) expr(e ast.Expr, held map[string]token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.reportBlocked(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if kind, ok := s.blockingCall(n); ok {
				s.reportBlocked(n.Pos(), kind, held)
			}
		}
		return true
	})
}

func (s *lockScanner) reportBlocked(pos token.Pos, kind string, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	s.pass.Reportf(pos, "%s while holding %s", kind, strings.Join(keys, ", "))
}

// blockingCall classifies calls that can block the goroutine: holdblock's
// list, less sync.Cond.Wait, which releases the mutex — the sanctioned
// pattern.
func (s *lockScanner) blockingCall(call *ast.CallExpr) (string, bool) {
	kind, ok := blockingKind(call, s.pass.TypeOf)
	if kind == condWait {
		return "", false
	}
	return kind, ok
}
