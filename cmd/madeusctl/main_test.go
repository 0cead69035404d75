package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/sqlmini"
)

// TestPrintResultUnquoted pins the STATUS output: text cells print raw,
// not SQL-quoted, numbers as digits, then the tag.
func TestPrintResultUnquoted(t *testing.T) {
	res := &engine.Result{
		Columns: []string{"tenant", "node", "mlc", "state", "lag", "debt"},
		Rows: [][]sqlmini.Value{
			{sqlmini.NewText("shop"), sqlmini.NewText("node0"), sqlmini.NewInt(4182),
				sqlmini.NewText("step3.propagate"), sqlmini.NewInt(37), sqlmini.NewInt(12)},
			{sqlmini.NewText("it's"), sqlmini.NewText("node1"), sqlmini.NewInt(0),
				sqlmini.NewText("idle"), sqlmini.NewInt(0), sqlmini.NewInt(0)},
		},
		Tag: "STATUS",
	}
	var out bytes.Buffer
	printResult(&out, res)
	want := "tenant\tnode\tmlc\tstate\tlag\tdebt\n" +
		"shop\tnode0\t4182\tstep3.propagate\t37\t12\n" +
		"it's\tnode1\t0\tidle\t0\t0\n" +
		"STATUS\n"
	if got := out.String(); got != want {
		t.Fatalf("printResult =\n%s\nwant\n%s", got, want)
	}
}

// TestReadmeNamesOnlyUsageSubcommands keeps README's walkthrough honest:
// every `./madeusctl <sub>` it shows must be a subcommand usageText lists,
// so a deleted verb cannot linger in the docs.
func TestReadmeNamesOnlyUsageSubcommands(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  ([a-z][a-z-]*)`).FindAllStringSubmatch(usageText, -1) {
		listed[m[1]] = true
	}
	if len(listed) == 0 {
		t.Fatal("usageText lists no subcommands")
	}
	uses := regexp.MustCompile(`\./madeusctl(?:\s+-addr\s+\S+)?\s+([a-z][a-z-]*)`).FindAllSubmatch(readme, -1)
	if len(uses) == 0 {
		t.Fatal("README shows no ./madeusctl command")
	}
	for _, m := range uses {
		if sub := string(m[1]); !listed[sub] {
			t.Errorf("README runs `./madeusctl %s`, which usageText does not list", sub)
		}
	}
}
