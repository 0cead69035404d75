// Package lsir is an executable rendering of the paper's formal model
// (Sections 2–3 and the appendix proofs): operations, histories, the six
// transactional dependency types, the mapping function ℱ (Definition 2),
// and the lazy snapshot isolation rule itself (Definition 3), together with
// a model replayer used to machine-check Theorem 1 on randomized histories,
// and the propagation scheduler (Algorithm 4's decisions, sched.go) that
// the middleware's Step 3 runs, so the checks test the production schedule.
//
// The package is independent of the storage engine: it works on abstract
// data items and version numbers, exactly like the paper's notation
// (x_i is the version of item x written by transaction T_i).
package lsir

import (
	"fmt"
	"sort"
)

// OpKind is the kind of an operation.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpCommit
	OpAbort
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "r"
	case OpWrite:
		return "w"
	case OpCommit:
		return "c"
	case OpAbort:
		return "a"
	}
	return "?"
}

// Op is one operation in a history. For reads, ReadVer is the transaction
// whose version was read (0 = the initial version). Writes create version
// Txn of Item.
type Op struct {
	Txn     int    // transaction id (the paper's subscript i)
	Kind    OpKind // r, w, c, a
	Item    string // data item for r/w
	ReadVer int    // version read (reads only): writer transaction id
}

func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		return fmt.Sprintf("r%d(%s_%d)", o.Txn, o.Item, o.ReadVer)
	case OpWrite:
		return fmt.Sprintf("w%d(%s_%d)", o.Txn, o.Item, o.Txn)
	case OpCommit:
		return fmt.Sprintf("c%d", o.Txn)
	default:
		return fmt.Sprintf("a%d", o.Txn)
	}
}

// History is a totally ordered sequence of operations (the order in which
// the operations were actually executed, Sec 2.1).
type History struct {
	Ops []Op
}

// TxnInfo summarizes one transaction inside a history.
type TxnInfo struct {
	ID        int
	Committed bool
	Aborted   bool
	Update    bool // performed at least one write
	FirstRead int  // index in Ops of the first read, -1 if none
	End       int  // index of commit/abort, -1 if none
}

// Txns extracts per-transaction summaries, keyed by transaction id.
func (h History) Txns() map[int]*TxnInfo {
	out := make(map[int]*TxnInfo)
	get := func(id int) *TxnInfo {
		ti, ok := out[id]
		if !ok {
			ti = &TxnInfo{ID: id, FirstRead: -1, End: -1}
			out[id] = ti
		}
		return ti
	}
	for i, op := range h.Ops {
		ti := get(op.Txn)
		switch op.Kind {
		case OpRead:
			if ti.FirstRead < 0 {
				ti.FirstRead = i
			}
		case OpWrite:
			ti.Update = true
		case OpCommit:
			ti.Committed = true
			ti.End = i
		case OpAbort:
			ti.Aborted = true
			ti.End = i
		}
	}
	return out
}

// String renders the history in paper notation.
func (h History) String() string {
	s := ""
	for i, op := range h.Ops {
		if i > 0 {
			s += " "
		}
		s += op.String()
	}
	return s
}

// FinalState computes, for each item, the version (writer transaction id)
// visible after all committed transactions: the last committed write per
// item in history order. Items never written map to version 0 and are
// omitted.
func (h History) FinalState() map[string]int {
	txns := h.Txns()
	state := make(map[string]int)
	for _, op := range h.Ops {
		if op.Kind != OpWrite {
			continue
		}
		if ti := txns[op.Txn]; ti != nil && ti.Committed {
			state[op.Item] = op.Txn
		}
	}
	return state
}

// Items returns the sorted set of items touched by the history.
func (h History) Items() []string {
	set := make(map[string]bool)
	for _, op := range h.Ops {
		if op.Item != "" {
			set[op.Item] = true
		}
	}
	out := make([]string, 0, len(set))
	for it := range set {
		out = append(out, it)
	}
	sort.Strings(out)
	return out
}
