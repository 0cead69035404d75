package core

import (
	"strings"

	"madeus/internal/sqlmini"
)

// Entry is one captured operation inside an SSB. Entries are held in FIFO
// order (Fig 3): the syncset's first operation, then its writes (or, in
// B-ALL capture mode, every subsequent operation).
type Entry struct {
	SQL   string
	Class sqlmini.OpClass
}

// newEntry captures sql, lent by the wire server for the call (see
// wire.Conn), as an entry that owns a copy: the one statement copy a worker
// takes.
func newEntry(sql string, class sqlmini.OpClass) Entry {
	return Entry{SQL: strings.Clone(sql), Class: class}
}

// SSB is a syncset buffer (Fig 3): the captured operations of one
// transaction plus its start timestamp (STS, the MLC at its first
// operation) and end timestamp (ETS, the MLC at its commit).
type SSB struct {
	STS, ETS uint64
	Entries  []Entry

	// update records whether the transaction wrote anything; read-only
	// SSBs are discarded at commit (mapping function, Definition 2) —
	// except under B-ALL capture, which propagates them too.
	update bool
}

// FirstOp returns the first captured operation.
func (b *SSB) FirstOp() Entry {
	if len(b.Entries) == 0 {
		return Entry{}
	}
	return b.Entries[0]
}

// Rest returns the captured operations after the first.
func (b *SSB) Rest() []Entry {
	if len(b.Entries) <= 1 {
		return nil
	}
	return b.Entries[1:]
}

// OpCount is the number of captured operations plus the commit.
func (b *SSB) OpCount() int { return len(b.Entries) + 1 }

// Per-SSB memory accounting used by the flow layer's byte cap: the struct
// itself plus slice headers, rounded up, and each entry's header plus its
// SQL text. Deliberately a slight over-estimate — the cap protects the
// process, so erring high is the safe side. The overheads also make the
// byte cap bound the counts: accounted bytes ≥ 96·syncsets and ≥ 32·ops.
const (
	ssbOverhead   = 96
	entryOverhead = 32
)

// MemSize estimates the SSB's resident footprint in bytes.
func (b *SSB) MemSize() int64 {
	n := int64(ssbOverhead)
	for _, e := range b.Entries {
		n += entryOverhead + int64(len(e.SQL))
	}
	return n
}
