// Package invariant provides build-tag-gated runtime assertions for the
// concurrency-critical core (WAL, MVCC, LSIR).
//
// By default every function in this package is an empty no-op that the
// compiler inlines away, so production builds pay nothing for the assertion
// call sites sprinkled through the hot paths (checked on the compiled code
// by TestDisabledOverhead/TestInvariantZeroOverhead at the repo root).
// Building with
//
//	go test -tags invariants ./...
//
// turns the same call sites into enforced checks that panic on violation and
// bump a global counter, so tests can verify the assertions were actually
// reachable (Count > 0) and the protocol invariants — WAL LSN monotonicity,
// MVCC snapshot-visibility discipline, LSIR propagation ordering — held
// throughout the run.
//
// Discipline for call sites:
//
//   - Assert/Assertf conditions must be cheap expressions (comparisons on
//     values already in hand). They are evaluated even in no-tag builds,
//     where only dead-code elimination saves the cost.
//   - Anything that needs a function call — scans, lock acquisitions,
//     re-derivations — goes through Check(func() error {...}); the closure
//     is never invoked in no-tag builds.
package invariant
