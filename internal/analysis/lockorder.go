package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder checks every lock acquisition — including acquisitions reached
// through calls, over the whole-load call graph — against the hierarchy
// declared by //madeusvet:lockrank annotations (DESIGN.md §5a/§5f): while a
// ranked mutex is held, only strictly higher-ranked mutexes may be
// acquired. It reports three shapes of finding:
//
//   - rank inversions: acquiring rank <= held rank, with the call chain and,
//     when the edge closes a cycle, the full acquisition cycle;
//   - re-acquisition self-deadlocks: taking a mutex already held (shared
//     RLock->RLock re-entry is exempt);
//   - acquisition cycles among unranked (but identity-resolved) mutexes,
//     which are deadlocks the rank table does not yet name.
//
// Every function's body is walked with every callee already registered, so
// a call resolves whatever the declaration order; edges are built
// conservatively at interface call sites and not at all at dynamic func
// values — see the soundness note in callgraph.go.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisitions, through any chain of calls, must follow the declared //madeusvet:lockrank hierarchy; no acquisition cycles",
	run:  lockOrderFindings,
}

// lockEdge: `to` can be acquired while `from` (taken at fromPos) is held, at
// pos inside fn (directly, or through chain ending at acqPos).
type lockEdge struct {
	from, to         types.Object
	fromMeth, toMeth string
	fromPos          token.Pos // where the held lock was taken
	pos              token.Pos // site in fn (acquisition or call)
	acqPos           token.Pos // ultimate acquisition site
	fn               *FuncInfo
	chain            []string // call chain when indirect
}

func lockOrderFindings(prog *Program) []Diagnostic {
	var out []Diagnostic
	out = append(out, prog.Ranks.problems...)

	edges := collectLockEdges(prog)
	cycles := findLockCycles(prog, edges)

	// Cycle membership per (from,to) pair, so an inversion that closes a
	// cycle carries the whole cycle in its message.
	type pair struct{ from, to types.Object }
	cycleOf := make(map[pair][]lockEdge)
	for _, cyc := range cycles {
		for _, e := range cyc {
			p := pair{e.from, e.to}
			if _, ok := cycleOf[p]; !ok {
				cycleOf[p] = cyc
			}
		}
	}

	seen := make(map[string]bool)
	cycleReported := make(map[string]bool)
	for _, e := range edges {
		fromRank, fromRanked := prog.Ranks.Rank(e.from)
		toRank, toRanked := prog.Ranks.Rank(e.to)
		var msg string
		switch {
		case e.from == e.to:
			if e.fromMeth == "RLock" && (e.toMeth == "RLock" || e.toMeth == "") {
				continue // shared-mode re-entry
			}
			if fromRanked && fromRank.Striped {
				// Striped locks have many instances: acquiring another
				// stripe of the same field is legal when index-ordered
				// (DESIGN.md §5i).
				continue
			}
			p := prog.Fset.Position(e.fromPos)
			msg = fmt.Sprintf("re-acquires %s already held since %s:%d — self-deadlock%s",
				prog.lockDesc(e.to, ""), shortFile(p.Filename), p.Line, chainText(e))
		case fromRanked && toRanked && toRank.Rank <= fromRank.Rank:
			msg = fmt.Sprintf("lock order violation: acquiring %s (rank %d)%s while holding %s (rank %d); the declared hierarchy requires strictly increasing rank",
				toRank.Name, toRank.Rank, chainText(e), fromRank.Name, fromRank.Rank)
			if cyc := cycleOf[pair{e.from, e.to}]; cyc != nil {
				msg += "; acquisition cycle: " + prog.cycleText(cyc)
				cycleReported[cycleKey(prog, cyc)] = true
			}
		default:
			continue
		}
		key := fmt.Sprintf("%v|%v|%v", e.from, e.to, e.pos)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Diagnostic{
			Pos:     prog.Fset.Position(e.pos),
			Rule:    "lockorder",
			Message: msg,
		})
	}

	// Cycles not already surfaced through an inversion edge (e.g. among
	// unranked mutexes) get their own finding, anchored at the first edge.
	for _, cyc := range cycles {
		if cycleReported[cycleKey(prog, cyc)] {
			continue
		}
		cycleReported[cycleKey(prog, cyc)] = true
		anchor := cyc[0]
		out = append(out, Diagnostic{
			Pos:     prog.Fset.Position(anchor.pos),
			Rule:    "lockorder",
			Message: "lock acquisition cycle (deadlock): " + prog.cycleText(cyc),
		})
	}
	return out
}

func shortFile(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func chainText(e lockEdge) string {
	if len(e.chain) == 0 {
		return ""
	}
	return " via " + strings.Join(e.chain, " → ")
}

// cycleText renders "tenant → wal (acquired at wal.go:182 in wal.(*Log).Commit) → tenant".
func (prog *Program) cycleText(cyc []lockEdge) string {
	var b strings.Builder
	for i, e := range cyc {
		if i == 0 {
			b.WriteString(prog.lockDesc(e.from, ""))
		}
		p := prog.Fset.Position(e.acqPos)
		fmt.Fprintf(&b, " → %s (acquired at %s:%d in %s%s)",
			prog.lockDesc(e.to, ""), shortFile(p.Filename), p.Line, funcDisplay(e.fn), chainText(e))
	}
	return b.String()
}

func funcDisplay(fn *FuncInfo) string {
	if fn.Obj != nil {
		return displayName(fn.Obj)
	}
	return fn.Decl.Name.Name
}

func cycleKey(prog *Program, cyc []lockEdge) string {
	names := make([]string, 0, len(cyc))
	for _, e := range cyc {
		names = append(names, prog.lockDesc(e.to, ""))
	}
	sort.Strings(names)
	return strings.Join(names, "→")
}

// collectLockEdges builds the held→acquired edge set over every function:
// direct acquisitions under a held lock, and call sites whose callees
// (transitively) acquire locks.
func collectLockEdges(prog *Program) []lockEdge {
	infos := prog.sortedFuncs()
	var edges []lockEdge
	for _, fi := range infos {
		for _, a := range fi.acquires {
			if a.obj == nil {
				continue
			}
			for _, h := range a.held {
				if h.obj == nil {
					continue
				}
				edges = append(edges, lockEdge{
					from: h.obj, to: a.obj,
					fromMeth: h.method, toMeth: a.method,
					pos: a.pos, acqPos: a.pos, fn: fi,
				})
			}
		}
		for _, cs := range fi.calls {
			if len(cs.held) == 0 {
				continue
			}
			for _, callee := range cs.callees {
				for lock, w := range prog.funcs[callee].sumAcquires {
					for _, h := range cs.held {
						if h.obj == nil {
							continue
						}
						edges = append(edges, lockEdge{
							from: h.obj, to: lock,
							fromMeth: h.method, toMeth: w.method,
							fromPos: h.pos, pos: cs.pos, acqPos: w.pos, fn: fi,
							chain: prependPath(displayName(callee), w.path),
						})
					}
				}
			}
		}
	}
	// Deterministic order: by position, then lock names.
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		pa, pb := prog.Fset.Position(a.pos), prog.Fset.Position(b.pos)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		if pa.Line != pb.Line {
			return pa.Line < pb.Line
		}
		return prog.lockDesc(a.to, "") < prog.lockDesc(b.to, "")
	})
	return edges
}

// findLockCycles finds elementary acquisition cycles (bounded length) in
// the lock graph. Self-loops are handled by the inversion pass, so cycles
// here have length >= 2.
func findLockCycles(prog *Program, edges []lockEdge) [][]lockEdge {
	adj := make(map[types.Object][]lockEdge)
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		// One representative edge per (from,to).
		dup := false
		for _, x := range adj[e.from] {
			if x.to == e.to {
				dup = true
				break
			}
		}
		if !dup {
			adj[e.from] = append(adj[e.from], e)
		}
	}
	nodes := make([]types.Object, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		return prog.lockDesc(nodes[i], "") < prog.lockDesc(nodes[j], "")
	})
	order := make(map[types.Object]int, len(nodes))
	for i, n := range nodes {
		order[n] = i
	}

	const maxLen = 8
	var cycles [][]lockEdge
	var path []lockEdge
	onPath := make(map[types.Object]bool)
	var dfs func(start, cur types.Object)
	dfs = func(start, cur types.Object) {
		if len(path) >= maxLen {
			return
		}
		for _, e := range adj[cur] {
			if e.to == start {
				cyc := append([]lockEdge(nil), path...)
				cyc = append(cyc, e)
				cycles = append(cycles, cyc)
				continue
			}
			// Only visit nodes ordered after start, so each cycle is
			// discovered exactly once (rooted at its minimal node).
			if order[e.to] <= order[start] || onPath[e.to] {
				continue
			}
			onPath[e.to] = true
			path = append(path, e)
			dfs(start, e.to)
			path = path[:len(path)-1]
			delete(onPath, e.to)
		}
	}
	for _, n := range nodes {
		onPath[n] = true
		dfs(n, n)
		delete(onPath, n)
	}
	return cycles
}
