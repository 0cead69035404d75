package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"madeus/internal/engine"
	"madeus/internal/sqlmini"
	"madeus/internal/testutil"
)

func newServer(t *testing.T) (*engine.Engine, *Server) {
	t.Helper()
	// Registered before the engine/server cleanups so it runs after them
	// (LIFO) and sees the fully torn-down state.
	testutil.CheckGoroutines(t)
	e := engine.New(engine.Options{})
	t.Cleanup(e.Close)
	if err := e.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", EngineHandler(e))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return e, srv
}

func TestClientServerRoundTrip(t *testing.T) {
	_, srv := newServer(t)
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, w FLOAT, ok BOOL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO t (id, name, w, ok) VALUES (1, 'x', 1.5, TRUE), (2, NULL, NULL, FALSE)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT * FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].Str != "x" || !res.Rows[0][3].Bool() {
		t.Errorf("row0 = %v", res.Rows[0])
	}
	if !res.Rows[1][1].IsNull() || !res.Rows[1][2].IsNull() {
		t.Errorf("row1 NULLs = %v", res.Rows[1])
	}
	if res.Tag != "SELECT 2" {
		t.Errorf("Tag = %q", res.Tag)
	}
}

func TestServerErrorIsServerError(t *testing.T) {
	_, srv := newServer(t)
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT * FROM missing")
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("got %T %v, want *ServerError", err, err)
	}
	if IsTransportError(err) {
		t.Error("server error classified as transport error")
	}
	// The session survives a statement error.
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("session dead after error: %v", err)
	}
}

func TestStartupUnknownDatabase(t *testing.T) {
	_, srv := newServer(t)
	_, err := Dial(srv.Addr(), "nope")
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *ServerError", err)
	}
}

func TestTransactionStateIsPerConnection(t *testing.T) {
	_, srv := newServer(t)
	c1, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if _, err := c1.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	// c2 must not see c1's uncommitted insert.
	res, err := c2.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 0 {
		t.Error("uncommitted insert visible cross-connection")
	}
	if _, err := c1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, err = c2.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 1 {
		t.Error("committed insert not visible")
	}
}

func TestConnectionCloseAbortsOpenTxn(t *testing.T) {
	_, srv := newServer(t)
	c1, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Poll briefly: server-side cleanup is asynchronous with Close.
	deadline := time.Now().Add(time.Second)
	for {
		res, err := c2.Exec("SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("open txn not aborted on disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, srv := newServer(t)
	c0, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	c0.Close()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), "db")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				id := w*1000 + i
				if _, err := c.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", id, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != workers*20 {
		t.Errorf("count = %v, want %d", res.Rows[0][0], workers*20)
	}
}

func TestDialRTTAddsLatency(t *testing.T) {
	_, srv := newServer(t)
	c, err := DialRTT(srv.Addr(), "db", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := c.Exec("SELECT COUNT(*) FROM t"); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("5 execs with 5ms RTT took %v, want >= 25ms", elapsed)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	_, srv := newServer(t)
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := c.Exec("SELECT 1 FROM t"); err == nil {
		t.Error("want error after server close")
	}
	// Dialing a closed server fails.
	if _, err := Dial(srv.Addr(), "db"); err == nil {
		t.Error("want dial error after close")
	}
}

// TestResultEncodeDecodeRoundTrip property-checks the wire encoding over
// randomized results.
func TestResultEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		res := randomResult(rng)
		got, err := DecodeResult(AppendResult(nil, res))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		// The rows share one backing array: none may have room to grow
		// into the next.
		for _, row := range got.Rows {
			if cap(row) != len(row) {
				return false
			}
		}
		return resultEqual(res, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randomResult(rng *rand.Rand) *engine.Result {
	res := &engine.Result{
		Tag:      fmt.Sprintf("TAG %d", rng.Intn(100)),
		Affected: rng.Intn(1000),
	}
	ncols := rng.Intn(5)
	for i := 0; i < ncols; i++ {
		res.Columns = append(res.Columns, fmt.Sprintf("c%d", i))
	}
	nrows := rng.Intn(6)
	for i := 0; i < nrows; i++ {
		// Rows are as wide as the header, except now and then a wider one
		// that outgrows the decoder's backing array.
		width := ncols
		if rng.Intn(4) == 0 {
			width += rng.Intn(3)
		}
		row := make([]sqlmini.Value, width)
		for j := range row {
			switch rng.Intn(5) {
			case 0:
				row[j] = sqlmini.Null()
			case 1:
				row[j] = sqlmini.NewInt(rng.Int63() - rng.Int63())
			case 2:
				row[j] = sqlmini.NewFloat(rng.NormFloat64())
			case 3:
				row[j] = sqlmini.NewText(randString(rng))
			default:
				row[j] = sqlmini.NewBool(rng.Intn(2) == 0)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(20))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// resultEqual is deep equality. Values compare with ==, which compares a
// FLOAT by its bits, so a NaN that survives an encode/decode round trip
// counts as equal to itself.
func resultEqual(a, b *engine.Result) bool {
	if a.Tag != b.Tag || a.Affected != b.Affected {
		return false
	}
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	for i, row := range a.Rows {
		if len(row) != len(b.Rows[i]) {
			return false
		}
		for j, v := range row {
			if v != b.Rows[i][j] { // a FLOAT's Int is its bits
				return false
			}
		}
	}
	return true
}

func TestDecodeResultTruncated(t *testing.T) {
	res := &engine.Result{Tag: "SELECT 1", Columns: []string{"a"},
		Rows: [][]sqlmini.Value{{sqlmini.NewText("hello")}}}
	buf := AppendResult(nil, res)
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeResult(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func BenchmarkWireExecSelect(b *testing.B) {
	e := engine.New(engine.Options{})
	defer e.Close()
	if err := e.CreateDatabase("db"); err != nil {
		b.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", EngineHandler(e))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO t (id, v) VALUES (1, 1)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec("SELECT v FROM t WHERE id = 1"); err != nil {
			b.Fatal(err)
		}
	}
}
