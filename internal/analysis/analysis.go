// Package analysis is madeus's in-tree static-analysis framework: a small
// analyzer harness built entirely on the stdlib go/ast, go/parser, and
// go/types packages (no golang.org/x/tools dependency), plus the
// repo-tailored concurrency analyzers that cmd/madeusvet runs over ./...
//
// The framework exists because the repo's correctness rests on concurrency
// discipline that generic go vet cannot see: which mutexes guard which
// critical regions, which calls block, which errors are load-bearing on the
// commit/WAL/wire paths, and which assertions must stay behind the
// `invariants` build tag. Each analyzer encodes one such rule; DESIGN.md
// ("Concurrency invariants & lock hierarchy" and "Interprocedural
// analysis") documents the discipline they enforce.
//
// Two tiers of analyzer share the harness. Per-package rules walk one
// package's ASTs (lockdiscipline, goroleak, errdrop, invariantcall,
// timerchurn, tagparity). Interprocedural rules (lockorder,
// holdblock) consult a Program: a whole-load static call graph with
// per-function summaries of mutexes acquired and blocking operations
// reached, built once per run and shared by every package's pass.
//
// Findings can be suppressed at a specific site with an inline directive on
// the same line or the line directly above:
//
//	//madeusvet:ignore rulename reason for the exemption
//
// Suppressions are for intentional, documented deviations (e.g. the WAL's
// serial mode holding its mutex across the modeled fsync); use sparingly. A
// directive that no longer suppresses anything is itself reported (rule
// staleignore), so dead exemptions cannot accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/token"
	"go/types"
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

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass hands one package to an analyzer. Info and Types may be incomplete
// when type-checking partially failed (the loader records the error and
// continues); analyzers must degrade to AST heuristics in that case. Prog
// is the whole-load interprocedural view shared by every pass of one run.
type Pass struct {
	Analyzer    *Analyzer
	Fset        *token.FileSet
	Files       []*ast.File
	TaggedFiles []TaggedFile
	Constraints map[*ast.File]constraint.Expr
	PkgPath     string
	Types       *types.Package
	Info        *types.Info
	Prog        *Program

	ownFiles map[string]bool
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// adoptOwned copies the program-wide findings that live in this pass's
// package. Interprocedural analyzers compute findings once per Program and
// each package's pass claims its own, so suppression and reporting stay
// per-package.
func (p *Pass) adoptOwned(all []Diagnostic) {
	for _, d := range all {
		if p.ownFiles[d.Pos.Filename] {
			d.Rule = p.Analyzer.Name
			p.diags = append(p.diags, d)
		}
	}
}

// TypeOf returns the type of e, or nil when type info is unavailable.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// All returns the default analyzer set cmd/madeusvet runs.
func All() []*Analyzer {
	return []*Analyzer{
		LockDiscipline,
		GoroLeak,
		ErrDrop,
		InvariantCall,
		TimerChurn,
		LockOrder,
		StripeOrder,
		HoldBlock,
		TagParity,
		ObsName,
		FsyncAck,
		StaleIgnore,
	}
}

// StaleIgnore reports //madeusvet:ignore directives that no longer suppress
// any finding. The harness applies it after every other selected rule has
// run on a package: a directive is stale only when each rule it names ran
// in this very invocation and still produced nothing at the directive's
// site, so a narrowed -rules run never mislabels a live exemption. Packages
// whose type-check failed are skipped (degraded rules may simply have
// missed the finding the directive guards).
var StaleIgnore = &Analyzer{
	Name: "staleignore",
	Doc:  "an //madeusvet:ignore directive that suppresses nothing is itself a finding",
	Run:  func(*Pass) {}, // applied by the harness after all rules run
}

// RunAnalyzers applies each analyzer to pkg in isolation (the package plus
// its cached dependency closure form the interprocedural Program) and
// returns the surviving findings, sorted by position, with
// //madeusvet:ignore directives applied.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return runPackage(NewProgram([]*Package{pkg}), pkg, analyzers)
}

// RunAll builds one Program over every target package and runs the
// analyzers package by package; interprocedural rules see the whole load.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := NewProgram(pkgs)
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, runPackage(prog, pkg, analyzers)...)
	}
	return out
}

func runPackage(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	ignores := collectIgnores(pkg.Fset, pkg.Files, pkg.Tagged)
	own := make(map[string]bool, len(pkg.Files)+len(pkg.Tagged))
	for _, f := range pkg.Files {
		own[pkg.Fset.Position(f.Pos()).Filename] = true
	}
	for _, tf := range pkg.Tagged {
		own[pkg.Fset.Position(tf.File.Pos()).Filename] = true
	}

	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			TaggedFiles: pkg.Tagged,
			Constraints: pkg.Constraints,
			PkgPath:     pkg.Path,
			Types:       pkg.Types,
			Info:        pkg.Info,
			Prog:        prog,
			ownFiles:    own,
		}
		a.Run(pass)
		for _, d := range pass.diags {
			if ignores.suppressed(d) {
				continue
			}
			out = append(out, d)
		}
	}

	// Stale-suppression pass: after every selected rule has run, an
	// eligible directive that suppressed nothing is dead weight.
	if hasAnalyzer(analyzers, StaleIgnore.Name) && pkg.TypeErr == nil {
		names := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			names[a.Name] = true
		}
		full := true
		for _, a := range All() {
			if !names[a.Name] {
				full = false
				break
			}
		}
		for _, dir := range ignores.directives {
			if dir.used || dir.inTagged {
				continue
			}
			if dir.all && !full {
				continue
			}
			eligible := true
			for _, r := range dir.rules {
				if !names[r] {
					eligible = false
					break
				}
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
			if ignores.suppressed(d) {
				continue
			}
			out = append(out, d)
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

func hasAnalyzer(analyzers []*Analyzer, name string) bool {
	for _, a := range analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

// ignoreDirective is one //madeusvet:ignore occurrence, tracked for
// staleness.
type ignoreDirective struct {
	pos      token.Position
	rules    []string
	all      bool
	used     bool
	inTagged bool
}

func (d *ignoreDirective) matches(rule string) bool {
	if d.all {
		return true
	}
	for _, r := range d.rules {
		if r == rule {
			return true
		}
	}
	return false
}

// ignoreIndex maps file -> line -> directives covering that line.
type ignoreIndex struct {
	directives []*ignoreDirective
	byLine     map[string]map[int][]*ignoreDirective
}

// collectIgnores scans comments for madeusvet:ignore directives. A directive
// suppresses the named rules (comma-separated; "all" matches every rule) on
// its own line and on the line that follows it, so both trailing and
// preceding comment placement work. Directives in tag-excluded files are
// honored (tagparity reports at positions inside them) but exempt from
// staleness, since most rules never see those files.
func collectIgnores(fset *token.FileSet, files []*ast.File, tagged []TaggedFile) *ignoreIndex {
	idx := &ignoreIndex{byLine: make(map[string]map[int][]*ignoreDirective)}
	scan := func(f *ast.File, inTagged bool) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "madeusvet:ignore") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "madeusvet:ignore"))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				dir := &ignoreDirective{pos: pos, inTagged: inTagged}
				for _, r := range strings.Split(fields[0], ",") {
					r = strings.TrimSpace(r)
					if r == "all" {
						dir.all = true
					} else if r != "" {
						dir.rules = append(dir.rules, r)
					}
				}
				idx.directives = append(idx.directives, dir)
				byLine := idx.byLine[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*ignoreDirective)
					idx.byLine[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					byLine[line] = append(byLine[line], dir)
				}
			}
		}
	}
	for _, f := range files {
		scan(f, false)
	}
	for _, tf := range tagged {
		scan(tf.File, true)
	}
	return idx
}

// suppressed reports whether a directive covers d, marking the directive
// used.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	hit := false
	for _, dir := range idx.byLine[d.Pos.Filename][d.Pos.Line] {
		if dir.matches(d.Rule) {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// --- shared AST helpers used by several analyzers ---

// exprString renders a (simple) expression as source-ish text, enough to key
// lock identity ("t.mu", "ch.mu", "p.herdMu"). Unrenderable expressions
// return "".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "[...]"
	}
	return ""
}

// isTestFile reports whether the file holding pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// namedType dereferences pointers and returns the *types.Named behind t,
// or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = p.Elem().(*types.Named)
		}
	}
	return n
}

// isSyncType reports whether t is sync.<name> (or a pointer to it).
func isSyncType(t types.Type, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == name
}
