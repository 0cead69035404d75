package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestAnalyzerFixtures drives every analyzer over its fixture package under
// testdata/src (a self-contained module loaded with the real loader). A
// fixture line carrying a `// want` marker must yield exactly one finding of
// the package's namesake rule; every other line must yield none.
//
// staleignore is the one analyzer exercised outside this harness: its
// findings land ON the //madeusvet:ignore directive line, which cannot also
// carry a `// want` comment, so TestStaleIgnore asserts it directly.
func TestAnalyzerFixtures(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "src"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := make(map[string]*Analyzer)
	for _, a := range All() {
		analyzers[a.Name] = a
	}

	tested := map[string]bool{StaleIgnore.Name: true}
	for _, pkg := range pkgs {
		base := pkg.Path[strings.LastIndex(pkg.Path, "/")+1:]
		a, ok := analyzers[base]
		if !ok || base == StaleIgnore.Name {
			continue
		}
		tested[base] = true
		pkg := pkg
		t.Run(base, func(t *testing.T) {
			checkWant(t, pkg, RunAll([]*Package{pkg}, []*Analyzer{a}), a.Name)
		})
	}
	for name := range analyzers {
		if !tested[name] {
			t.Errorf("analyzer %s has no fixture package under testdata/src", name)
		}
	}
}

// checkWant compares the findings of rule in diags with the fixture's
// `// want` trailing comments: exactly one finding per marked line, none
// elsewhere.
func checkWant(t *testing.T, pkg *Package, diags []Diagnostic, rule string) {
	t.Helper()
	got := make(map[string]int)
	for _, d := range diags {
		if d.Rule == rule {
			got[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)]++
		}
	}
	want := make(map[string]int)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "want" {
					pos := pkg.Fset.Position(c.Pos())
					want[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]++
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture has no want markers; the positive case is missing")
	}
	for loc, n := range want {
		if got[loc] != n {
			t.Errorf("%s: got %d findings, want %d", loc, got[loc], n)
		}
	}
	for loc, n := range got {
		if want[loc] == 0 {
			t.Errorf("%s: %d unexpected finding(s)", loc, n)
		}
	}
}

// TestIgnoreDirectiveScope pins the suppression contract under the full
// rule set: a directive suppresses its own line and the next, for the
// named rules only (the lockorder fixture's suppressedInversion and
// outOfScope).
func TestIgnoreDirectiveScope(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "src"), "./lockorder")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	checkWant(t, pkgs[0], RunAll(pkgs, All()), LockOrder.Name)
}

// TestStaleIgnore pins stale-suppression reporting on the staleignore
// fixture: the directive guarding a live lockorder finding stays silent, the
// one guarding nothing is reported, and the one naming an unknown rule is
// never eligible.
func TestStaleIgnore(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "src"), "./staleignore")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags := RunAll(pkgs, All())
	var stale []Diagnostic
	for _, d := range diags {
		if d.Rule == StaleIgnore.Name {
			stale = append(stale, d)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("got %d staleignore findings, want exactly 1: %v", len(stale), diags)
	}
	if !strings.Contains(stale[0].Message, "lockorder") {
		t.Errorf("stale finding should name the dead rule list: %s", stale[0].Message)
	}
	// The stale directive sits inside deadDirective; the live one inside
	// liveDirective must not be flagged.
	if !strings.Contains(readFixtureLine(t, stale[0]), "outlived its finding") {
		t.Errorf("stale finding anchored at the wrong directive: %s", stale[0])
	}

	// With a narrowed rule set that does not include lockorder, the dead
	// directive is NOT eligible (its rule did not run) and stays silent.
	narrowed := RunAll(pkgs, []*Analyzer{StaleIgnore})
	for _, d := range narrowed {
		if d.Rule == StaleIgnore.Name {
			t.Errorf("stale reported under a narrowed rule set that never ran lockorder: %s", d)
		}
	}
}

// readFixtureLine returns the source line a diagnostic points at.
func readFixtureLine(t *testing.T, d Diagnostic) string {
	t.Helper()
	data, err := os.ReadFile(d.Pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if d.Pos.Line-1 >= len(lines) {
		t.Fatalf("diagnostic line %d out of range for %s", d.Pos.Line, d.Pos.Filename)
	}
	return lines[d.Pos.Line-1]
}

// TestLockOrderCycleMessage pins the headline diagnostic: the seeded
// call-graph rank inversion in the lockorder fixture (chainSecond) must be
// diagnosed with the full acquisition cycle spelled out in the message.
func TestLockOrderCycleMessage(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "src"), "./lockorder")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	var inversion *Diagnostic
	for _, d := range RunAll(pkgs, []*Analyzer{LockOrder}) {
		d := d
		if strings.Contains(d.Message, "via lockorder.lockFirst") {
			inversion = &d
			break
		}
	}
	if inversion == nil {
		t.Fatal("the chainSecond call-graph inversion was not reported")
	}
	for _, frag := range []string{
		"lock order violation",
		"acquiring lo-first (rank 30)",
		"while holding lo-second (rank 40)",
		"acquisition cycle:",
		"lo-first → lo-second",
		"→ lo-first (acquired at",
	} {
		if !strings.Contains(inversion.Message, frag) {
			t.Errorf("inversion message missing %q:\n%s", frag, inversion.Message)
		}
	}
}

// TestLoaderRejectsTypeErrors pins the loader's contract: a package that
// does not type-check is an error naming the package, not a partial load
// the call graph would silently under-resolve.
func TestLoaderRejectsTypeErrors(t *testing.T) {
	_, err := Load(filepath.Join("testdata", "src"), "./_typeerror")
	if err == nil {
		t.Fatal("Load accepted a package with a type error")
	}
	if !strings.Contains(err.Error(), "fixture/_typeerror") || !strings.Contains(err.Error(), "undefinedIdentifier") {
		t.Errorf("error should name the package and the type error: %v", err)
	}
}

// TestLoaderCache pins the process-wide loader cache (and records the
// timing win): re-loading the same pattern re-parses and re-type-checks
// nothing, which is what keeps `madeusvet ./...` linear in the number of
// packages instead of quadratic (each target re-checking the shared
// dependency spine).
func TestLoaderCache(t *testing.T) {
	dir := filepath.Join("testdata", "src")
	start := time.Now()
	if _, err := Load(dir, "./..."); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	parsed0, hits0, checked0 := CacheStats()

	start = time.Now()
	if _, err := Load(dir, "./..."); err != nil {
		t.Fatal(err)
	}
	warm := time.Since(start)
	parsed1, hits1, checked1 := CacheStats()

	if parsed1 != parsed0 {
		t.Errorf("second Load parsed %d new package(s); want 0 (cache miss)", parsed1-parsed0)
	}
	if checked1 != checked0 {
		t.Errorf("second Load type-checked %d new package(s); want 0 (cache miss)", checked1-checked0)
	}
	if hits1 <= hits0 {
		t.Errorf("second Load recorded no cache hits (got %d -> %d)", hits0, hits1)
	}
	// Timing note: the warm load is typically orders of magnitude faster
	// than the cold one (which compiles the stdlib slice the fixtures
	// import from source). Logged, not asserted — CI machines vary.
	t.Logf("loader cache: cold=%v warm=%v (parsed=%d, cacheHits=%d, typeChecked=%d)",
		cold, warm, parsed1, hits1, checked1)
}
