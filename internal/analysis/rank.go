package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// The repo's declared lock hierarchy (DESIGN.md §5a/§5f) is expressed as
// numeric ranks attached to mutex declarations:
//
//	mu sync.Mutex //madeusvet:lockrank tenant 20
//
// Locks must be acquired in strictly increasing rank order; the lockorder
// analyzer reports inversions and cycles against these declarations.
//
// Rank bands, mirroring the conductor → tenant → engine → mvcc → wal
// hierarchy:
//
//	 1..9   process infrastructure (wire server bookkeeping)
//	10..19  middleware / conductor / propagator
//	20..29  tenant critical region, flow-control and propagation bookkeeping
//	30..39  session/engine layer
//	40..49  mvcc storage structures
//	50..59  wal

// LockRank is one annotated mutex declaration.
type LockRank struct {
	Name    string
	Rank    int
	Striped bool         // many instances striped by hash; index-ordered cross-stripe sections allowed
	Obj     types.Object // the mutex field or package-level var
	Pos     token.Pos
}

// RankTable indexes the lockrank annotations of one Program.
type RankTable struct {
	byObj    map[types.Object]LockRank
	byName   map[string]LockRank
	problems []Diagnostic // malformed or conflicting annotations
}

// Rank returns the annotation for a resolved lock object.
func (t *RankTable) Rank(obj types.Object) (LockRank, bool) {
	if t == nil || obj == nil {
		return LockRank{}, false
	}
	r, ok := t.byObj[obj]
	return r, ok
}

const lockrankDirective = "madeusvet:lockrank"

// collectRanks scans every package's struct fields and package-level vars
// for //madeusvet:lockrank directives. Annotations on anything that is not
// a sync.Mutex/RWMutex are recorded as problems for lockorder to report.
func collectRanks(pkgs []*Package) *RankTable {
	t := &RankTable{
		byObj:  make(map[types.Object]LockRank),
		byName: make(map[string]LockRank),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			collectFileRanks(t, pkg, f)
		}
	}
	return t
}

func collectFileRanks(t *RankTable, pkg *Package, f *ast.File) {
	problem := func(pos token.Pos, format string, args ...any) {
		t.problems = append(t.problems, Diagnostic{
			Pos:     pkg.Fset.Position(pos),
			Rule:    LockOrder.Name,
			Message: fmt.Sprintf(format, args...),
		})
	}
	addRank := func(name *ast.Ident, cg ...*ast.CommentGroup) {
		dir, pos, ok := lockrankIn(cg)
		if !ok {
			return
		}
		rankName, rank, striped, err := parseLockrank(dir)
		if err != "" {
			problem(pos, "bad lockrank directive: %s (want //madeusvet:lockrank <name> <rank> [striped])", err)
			return
		}
		obj := pkg.Info.Defs[name]
		if obj == nil {
			problem(pos, "lockrank %s ignored: %s did not resolve", rankName, name.Name)
			return
		}
		if !isMutex(obj.Type()) {
			problem(pos, "lockrank %s on %s: not a sync.Mutex/RWMutex", rankName, name.Name)
			return
		}
		if prev, dup := t.byName[rankName]; dup && prev.Rank != rank {
			problem(pos, "lockrank %s declared twice with different ranks (%d here, %d at %s)",
				rankName, rank, prev.Rank, pkg.Fset.Position(prev.Pos))
			return
		}
		lr := LockRank{Name: rankName, Rank: rank, Striped: striped, Obj: obj, Pos: pos}
		t.byObj[obj] = lr
		t.byName[rankName] = lr
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				for _, name := range field.Names {
					addRank(name, field.Doc, field.Comment)
				}
			}
		case *ast.GenDecl:
			if n.Tok != token.VAR {
				return true
			}
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					addRank(name, n.Doc, vs.Doc, vs.Comment)
				}
			}
		}
		return true
	})
}

// lockrankIn finds a lockrank directive in any of the comment groups and
// returns its argument text and position.
func lockrankIn(groups []*ast.CommentGroup) (args string, pos token.Pos, ok bool) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, found := strings.CutPrefix(text, lockrankDirective); found {
				return strings.TrimSpace(rest), c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// parseLockrank parses `<name> <rank>` with an optional trailing `striped`
// marker. A striped lock has many instances selected by hash, and a
// section that holds several walks them in index order (DESIGN.md §5i), so
// taking a second instance of one striped field is not a self-deadlock.
func parseLockrank(args string) (name string, rank int, striped bool, errMsg string) {
	fields := strings.Fields(args)
	switch len(fields) {
	case 2:
	case 3:
		if fields[2] != "striped" {
			return "", 0, false, "unknown marker " + strconv.Quote(fields[2]) + " (only \"striped\" is recognized)"
		}
		striped = true
	default:
		return "", 0, false, "want <name> <rank> [striped]"
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil {
		return "", 0, false, "rank " + strconv.Quote(fields[1]) + " is not an integer"
	}
	return fields[0], n, striped, ""
}
