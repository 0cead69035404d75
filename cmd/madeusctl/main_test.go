package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"testing"

	"madeus/internal/core"
	"madeus/internal/engine"
	"madeus/internal/obs"
	"madeus/internal/sqlmini"
	"madeus/internal/wire"
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

// TestEventsTenantWithoutFollow: `events -tenant t [n]` shows only t's
// events, the last n of them, over a real admin channel, where EVENTS [n]
// alone has no tenant filter; without -tenant it is EVENTS [n] as typed.
func TestEventsTenantWithoutFollow(t *testing.T) {
	mw, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	c, err := wire.Dial(mw.Addr(), core.AdminDB)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		obs.Trace.Emit("events-shop", fmt.Sprintf("shop.%d", i))
		obs.Trace.Emit("events-other", fmt.Sprintf("other.%d", i))
	}
	names := func(res *engine.Result) (out []string) {
		for _, row := range res.Rows {
			out = append(out, row[2].Str+" "+row[3].Str)
		}
		return out
	}
	for _, tc := range []struct {
		tenant, n string
		want      []string
	}{
		{"events-shop", "2", []string{"events-shop shop.3", "events-shop shop.4"}},
		{"events-other", "1", []string{"events-other other.4"}},
		{"events-shop", "", []string{"events-shop shop.0", "events-shop shop.1", "events-shop shop.2", "events-shop shop.3", "events-shop shop.4"}},
		{"", "2", []string{"events-shop shop.4", "events-other other.4"}},
	} {
		res, err := lastEvents(c, tc.tenant, tc.n)
		if err != nil {
			t.Fatalf("events -tenant %q %s: %v", tc.tenant, tc.n, err)
		}
		if got := names(res); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("events -tenant %q %s = %v, want %v", tc.tenant, tc.n, got, tc.want)
		}
	}
	for _, n := range []string{"0", "-1", "x"} {
		if _, err := lastEvents(c, "events-shop", n); err == nil {
			t.Errorf("events -tenant events-shop %s: no error", n)
		}
	}
}
