// Package wire is a fixture stand-in for madeus/internal/wire; lockdiscipline
// and holdblock match its Client by the "internal/wire" path suffix.
package wire

// Client is the fixture protocol client: each method is a network round trip.
type Client struct{}

// Exec is the fixture decoded round trip.
func (c *Client) Exec(sql string) (int, error) { return 0, nil }

// ExecReply is the fixture borrowed-reply round trip.
func (c *Client) ExecReply(sql string) ([]byte, error) { return nil, nil }

// ExecStream is the fixture streaming round trip.
func (c *Client) ExecStream(sql string, sink func(seq uint32, stmts []string) error) (int, error) {
	return 0, nil
}

// ExecRetry is the fixture retrying round trip.
func (c *Client) ExecRetry(sql string, idempotent bool) (int, error) { return 0, nil }
