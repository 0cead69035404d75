// Package holdblock exercises the holdblock analyzer: each line marked
// `// want` must produce exactly one finding; unmarked lines none.
package holdblock

import (
	"sync"
	"time"

	"fixture/internal/wire"
)

type state struct {
	session sync.Mutex //madeusvet:lockrank hb-session 30
	book    sync.Mutex //madeusvet:lockrank hb-book 20
}

// directSleep blocks while holding a session-rank lock — the plain
// single-function violation.
func directSleep(s *state) {
	s.session.Lock()
	defer s.session.Unlock()
	time.Sleep(time.Millisecond) // want
}

func send(ch chan int) {
	ch <- 1
}

// viaCall reaches a blocking channel send through a callee while the
// session lock is held; the finding lands on the call site.
func viaCall(s *state, ch chan int) {
	s.session.Lock()
	defer s.session.Unlock()
	send(ch) // want
}

// roundTrips calls every wire client round trip while the session lock is
// held; each is a blocking module boundary.
func roundTrips(s *state, c *wire.Client) {
	s.session.Lock()
	defer s.session.Unlock()
	_, _ = c.Exec("SELECT 1")                 // want
	_, _ = c.ExecReply("SELECT 1")            // want
	_, _ = c.ExecStream("DUMP STREAM 1", nil) // want
	_, _ = c.ExecRetry("SELECT 1", true)      // want
}

// lowRankOK blocks under a bookkeeping lock below RankSession — that is
// lockdiscipline's concern, not holdblock's.
func lowRankOK(s *state) {
	s.book.Lock()
	defer s.book.Unlock()
	time.Sleep(time.Millisecond)
}

// selectDefaultOK never blocks: the default arm makes the send a try-send.
func selectDefaultOK(s *state, ch chan int) {
	s.session.Lock()
	defer s.session.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// goroutineSevers hands the blocking send to a goroutine, which does not
// run under the caller's locks.
func goroutineSevers(s *state, ch chan int) {
	s.session.Lock()
	defer s.session.Unlock()
	go func() {
		ch <- 1
	}()
}

// suppressedReceive carries a real violation with an inline suppression;
// it must stay silent.
func suppressedReceive(s *state, ch chan int) {
	s.session.Lock()
	defer s.session.Unlock()
	//madeusvet:ignore holdblock seeded block kept to prove the suppression path
	<-ch
}
