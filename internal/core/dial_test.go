package core

import (
	"errors"
	"testing"
	"time"

	"madeus/internal/wire"
)

// refusingBackend is a destination whose every dial fails with err.
type refusingBackend struct {
	err   error
	dials int
}

func (b *refusingBackend) BackendName() string { return "refusing" }
func (b *refusingBackend) Connect(string) (*wire.Client, error) {
	b.dials++
	return nil, b.err
}
func (b *refusingBackend) CreateDatabase(string) error { return nil }
func (b *refusingBackend) DropDatabase(string) error   { return nil }

// recordSleeps makes connectRetry's pauses instant and returns them.
func recordSleeps(t *testing.T) *[]time.Duration {
	var sleeps []time.Duration
	retrySleep = func(d time.Duration) { sleeps = append(sleeps, d) }
	t.Cleanup(func() { retrySleep = time.Sleep })
	return &sleeps
}

// withinJitter reports whether d is the unjittered pause before retry n,
// min(25ms·2^(n-1), 500ms), give or take 20%.
func withinJitter(d time.Duration, n int) bool {
	base := min(25*time.Millisecond<<(n-1), 500*time.Millisecond)
	return d >= base*8/10 && d <= base*12/10
}

func TestConnectRetryBackoffSchedule(t *testing.T) {
	sleeps := recordSleeps(t)
	b := &refusingBackend{err: &wire.ConnLostError{Op: "dial", Cause: errors.New("refused")}}
	if _, err := connectRetry(b, "a", "", nil); err == nil {
		t.Fatal("dial to a refusing destination succeeded")
	}
	if len(*sleeps) != 3 {
		t.Fatalf("slept %v, want 3 pauses", *sleeps)
	}
	for i, d := range *sleeps {
		if !withinJitter(d, i+1) {
			t.Errorf("pause %d = %v, want within 20%% of %v", i+1, d, min(25*time.Millisecond<<i, 500*time.Millisecond))
		}
	}
	// The schedule past the fourth attempt, where the cap applies.
	for n := 1; n <= 8; n++ {
		for range 100 {
			if d := dialPause(n); !withinJitter(d, n) {
				t.Fatalf("dialPause(%d) = %v", n, d)
			}
		}
	}
}

func TestConnectRetryServerErrorFailsFast(t *testing.T) {
	sleeps := recordSleeps(t)
	b := &refusingBackend{err: &wire.ServerError{Msg: `database "a" does not exist`}}
	_, err := connectRetry(b, "a", "", nil)
	var se *wire.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want the server's error", err)
	}
	if b.dials != 1 || len(*sleeps) != 0 {
		t.Errorf("dials = %d, sleeps = %v; want one dial and no pause", b.dials, *sleeps)
	}
}

func TestConnectRetryGivesUpAfterFourAttempts(t *testing.T) {
	sleeps := recordSleeps(t)
	lost := &wire.ConnLostError{Op: "dial", Cause: errors.New("refused")}
	b := &refusingBackend{err: lost}
	retries0 := obsMigRetries.Value()
	_, err := connectRetry(b, "a", "", nil)
	if err != lost {
		t.Fatalf("err = %v, want the last dial's error", err)
	}
	if b.dials != 4 || len(*sleeps) != 3 {
		t.Errorf("dials = %d, sleeps = %v; want 4 dials and 3 pauses", b.dials, *sleeps)
	}
	if d := obsMigRetries.Value() - retries0; d != 3 {
		t.Errorf("core.migrations.retries advanced by %d, want 3", d)
	}
}
