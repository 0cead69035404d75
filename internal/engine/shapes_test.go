package engine_test

import (
	"context"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/metrics"
	"madeus/internal/tpcw"
)

// streamRecorder is an Execer that executes nothing: it keeps an EB's
// statements and ends the EB after n interactions.
type streamRecorder struct {
	n, done int
	cancel  context.CancelFunc
	stmts   []string
}

func (r *streamRecorder) Exec(sql string) (*engine.Result, error) {
	r.stmts = append(r.stmts, sql)
	if sql == "COMMIT" {
		if r.done++; r.done == r.n {
			r.cancel()
		}
		return &engine.Result{Tag: "COMMIT"}, nil
	}
	return &engine.Result{}, nil
}

// TestTPCWShapesFitTheParseCache runs the statement streams of the four
// benchmark workloads' mixes and scales through one session: a parse cache
// keyed on statement shape holds a few dozen entries for all of them, and
// so hits on nearly every statement, where one keyed on text would churn
// through tens of thousands of texts.
func TestTPCWShapesFitTheParseCache(t *testing.T) {
	small := tpcw.Scale{Items: 2000, Customers: 5000, Authors: 500}
	large := tpcw.Scale{Items: 20000, Customers: 60000, Authors: 5000}
	mixes := []struct {
		name      string
		updatePct int
		scale     tpcw.Scale
	}{
		{"browse-small", 5, small},
		{"order-small", 50, small},
		{"order-large", 50, large},
		{"order-fsync", 50, small},
	}
	const interactions = 1500

	e := engine.New(engine.Options{})
	defer e.Close()
	if err := e.CreateDatabase("shop"); err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession("shop")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The schema and a few rows: the streams' shapes do not depend on what
	// their reads find.
	if err := tpcw.Load(s, tpcw.Scale{Items: 20, Customers: 20, Authors: 5}); err != nil {
		t.Fatal(err)
	}
	db, _ := e.Database("shop")
	before := db.ParseCacheStats()

	texts := make(map[string]bool)
	n := 0
	for i, mix := range mixes {
		ctx, cancel := context.WithCancel(context.Background())
		r := &streamRecorder{n: interactions, cancel: cancel}
		rec := metrics.NewRecorder()
		rec.Close()
		eb := &tpcw.EB{ID: i + 1, Mix: tpcw.Mix{Name: mix.name, UpdatePct: mix.updatePct}, Scale: mix.scale, Seed: int64(i + 1)}
		_ = eb.Run(ctx, r, rec) // ends when the recorder cancels it
		for _, sql := range r.stmts {
			if _, err := s.Exec(sql); err != nil {
				t.Fatalf("%s: %s: %v", mix.name, sql, err)
			}
			texts[sql] = true
		}
		n += len(r.stmts)
	}

	st := db.ParseCacheStats()
	hits, misses := st.Hits-before.Hits, st.Misses-before.Misses
	t.Logf("%d statements, %d distinct texts: %d shapes cached, %d hits, %d misses",
		n, len(texts), st.Len, hits, misses)
	if hits+misses != uint64(n) {
		t.Fatalf("the cache saw %d lookups for %d statements", hits+misses, n)
	}
	if pct := 100 * float64(hits) / float64(n); pct < 99 {
		t.Errorf("parse cache hits %.2f%% of the statements, want at least 99%%", pct)
	}
	if st.Len > 100 {
		t.Errorf("parse cache holds %d entries, want at most 100", st.Len)
	}
}
