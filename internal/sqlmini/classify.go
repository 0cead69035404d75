package sqlmini

import "fmt"

// OpClass is the middleware-level classification of one operation. Madeus
// only needs to know whether an operation reads, writes, or ends a
// transaction in order to apply the LSIR mapping function (Definition 2).
type OpClass int

// Operation classes.
const (
	OpRead   OpClass = iota // SELECT
	OpWrite                 // INSERT / UPDATE / DELETE
	OpBegin                 // BEGIN
	OpCommit                // COMMIT
	OpAbort                 // ROLLBACK / ABORT
	OpDDL                   // CREATE TABLE / DROP TABLE
)

func (c OpClass) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpBegin:
		return "begin"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpDDL:
		return "ddl"
	}
	return fmt.Sprintf("OpClass(%d)", int(c))
}

// ClassifyStatement classifies a parsed statement.
func ClassifyStatement(st Statement) OpClass {
	switch st.(type) {
	case *Select:
		return OpRead
	case *Insert, *Update, *Delete:
		return OpWrite
	case *Begin:
		return OpBegin
	case *Commit:
		return OpCommit
	case *Rollback:
		return OpAbort
	default:
		return OpDDL
	}
}

// ClassifyQuery classifies raw SQL text by its leading keyword without a
// full parse. This is the hot path in the middleware relay: it must be cheap
// because every customer operation passes through it (Sec 4.2, "picks up
// necessary information by parsing the operation").
func ClassifyQuery(sql string) (OpClass, error) {
	i := 0
	for i < len(sql) {
		switch sql[i] {
		case ' ', '\t', '\n', '\r', ';':
			i++
			continue
		}
		break
	}
	j := i
	for j < len(sql) && isAlpha(sql[j]) {
		j++
	}
	if j == i {
		return 0, fmt.Errorf("sqlmini: cannot classify %q", sql)
	}
	switch keyword(sql[i:j]) {
	case "SELECT":
		return OpRead, nil
	case "INSERT", "UPDATE", "DELETE":
		return OpWrite, nil
	case "BEGIN":
		return OpBegin, nil
	case "COMMIT":
		return OpCommit, nil
	case "ROLLBACK", "ABORT":
		return OpAbort, nil
	case "CREATE", "DROP":
		return OpDDL, nil
	}
	return 0, fmt.Errorf("sqlmini: cannot classify %q", sql)
}
