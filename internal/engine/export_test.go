package engine

import "madeus/internal/wal"

// RetainedRecords returns the records e's log keeps for inspection, for the
// tests outside the package.
func RetainedRecords(e *Engine) []wal.Record { return e.log.Retained() }
