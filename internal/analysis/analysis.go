// Package analysis is madeus's in-tree static-analysis framework: a loader
// and a whole-load call graph built entirely on the stdlib go/ast,
// go/parser, and go/types packages (no golang.org/x/tools dependency), and
// the rules cmd/madeusvet runs over ./...
//
// It exists for the one discipline go vet, -race and the tagged test builds
// cannot see: the declared lock hierarchy (DESIGN.md §5a/§5f). -race sees
// a lock-order deadlock only when a test happens to interleave it; lockorder
// checks every acquisition the call graph can reach against the
// //madeusvet:lockrank annotations, so a nesting that could deadlock fails
// before any test runs into it.
//
// Findings can be suppressed at a specific site with an inline directive on
// the same line or the line directly above:
//
//	//madeusvet:ignore rulename reason for the exemption
//
// Suppressions are for a finding the analysis cannot see is safe; say why
// in the reason. A directive that no longer suppresses anything is itself
// reported (rule staleignore), so a dead exemption cannot hide a later
// finding on its line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named rule. run computes the rule's findings over the
// whole Program; the harness keeps those in target packages and applies
// their ignore directives.
type Analyzer struct {
	Name string
	Doc  string
	run  func(*Program) []Diagnostic
}

// StaleIgnore reports //madeusvet:ignore directives that no longer suppress
// any finding. The harness applies it after every other selected rule has
// run: a directive is stale only when each rule it names ran in this very
// invocation and still produced nothing at the directive's site, so a
// narrowed -rules run never mislabels a live exemption.
var StaleIgnore = &Analyzer{
	Name: "staleignore",
	Doc:  "an //madeusvet:ignore directive that suppresses nothing is itself a finding",
}

// All returns the default analyzer set cmd/madeusvet runs.
func All() []*Analyzer {
	return []*Analyzer{LockOrder, StaleIgnore}
}

// RunAll builds one Program over every target package, runs the analyzers,
// and returns the findings in the targets, sorted by position, with
// //madeusvet:ignore directives applied.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := NewProgram(pkgs)
	byFile := make(map[string][]Diagnostic)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		if a.run == nil {
			continue
		}
		for _, d := range a.run(prog) {
			byFile[d.Pos.Filename] = append(byFile[d.Pos.Filename], d)
		}
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg.Fset, pkg.Files)
		for _, f := range pkg.Files {
			for _, d := range byFile[pkg.Fset.Position(f.Pos()).Filename] {
				if !ignores.suppressed(d) {
					out = append(out, d)
				}
			}
		}
		if ran[StaleIgnore.Name] {
			out = append(out, ignores.stale(ran)...)
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}

// ignoreDirective is one //madeusvet:ignore occurrence, tracked for
// staleness.
type ignoreDirective struct {
	pos   token.Position
	rules []string
	used  bool
}

// ignoreIndex maps file -> line -> directives covering that line.
type ignoreIndex struct {
	directives []*ignoreDirective
	byLine     map[string]map[int][]*ignoreDirective
}

// collectIgnores scans comments for madeusvet:ignore directives. A directive
// suppresses the named rules (comma-separated) on its own line and on the
// line that follows it, so both trailing and preceding comment placement
// work.
func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{byLine: make(map[string]map[int][]*ignoreDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "madeusvet:ignore")
				fields := strings.Fields(rest)
				if !ok || len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				dir := &ignoreDirective{pos: pos}
				for _, r := range strings.Split(fields[0], ",") {
					if r = strings.TrimSpace(r); r != "" {
						dir.rules = append(dir.rules, r)
					}
				}
				idx.directives = append(idx.directives, dir)
				byLine := idx.byLine[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*ignoreDirective)
					idx.byLine[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], dir)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], dir)
			}
		}
	}
	return idx
}

// suppressed reports whether a directive covers d, marking the directive
// used.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	hit := false
	for _, dir := range idx.byLine[d.Pos.Filename][d.Pos.Line] {
		for _, r := range dir.rules {
			if r == d.Rule {
				dir.used = true
				hit = true
			}
		}
	}
	return hit
}

// stale reports the directives that suppressed nothing although every rule
// they name ran.
func (idx *ignoreIndex) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range idx.directives {
		eligible := !dir.used
		for _, r := range dir.rules {
			eligible = eligible && ran[r]
		}
		if !eligible {
			continue
		}
		d := Diagnostic{
			Pos:  dir.pos,
			Rule: StaleIgnore.Name,
			Message: fmt.Sprintf("stale suppression: //madeusvet:ignore %s no longer suppresses any finding; delete it or restate why it is needed",
				strings.Join(dir.rules, ",")),
		}
		if !idx.suppressed(d) {
			out = append(out, d)
		}
	}
	return out
}
