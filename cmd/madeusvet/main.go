// Command madeusvet runs the repo's lock-hierarchy linter over the tree and
// fails loudly on findings:
//
//	go run ./cmd/madeusvet ./...
//
// Output is one line per finding, `file:line:col: [rule] message`, and the
// exit status is 1 when anything fired (2 on load or usage errors), so the
// command slots straight into scripts/verify.sh and CI. Flags:
//
//	-rules lockorder   run only the named rules (default: all)
//	-list              list the analyzers and exit
//
// Suppress a finding the analysis cannot see is safe at its site with
// `//madeusvet:ignore rule reason`. The rules and the discipline they
// enforce are documented in internal/analysis and DESIGN.md ("Concurrency
// invariants & lock hierarchy", "Interprocedural analysis").
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"madeus/internal/analysis"
)

func main() {
	rules := flag.String("rules", "", "comma-separated rule names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madeusvet:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madeusvet:", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	findings := analysis.RunAll(pkgs, analyzers)
	for _, d := range findings {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "madeusvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -rules flag against the registered set.
func selectAnalyzers(spec string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if strings.TrimSpace(spec) == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		a := byName[name]
		if a == nil {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown rule %q (known: %s)", name, strings.Join(known, ", "))
		}
		seen[name] = true
		out = append(out, a)
	}
	return out, nil
}
