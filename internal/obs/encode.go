package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteText renders the registry snapshot as aligned "name value" lines.
// The error is the writer's — snapshot encoding must not silently drop it.
func WriteText(w io.Writer, snap []Metric) error {
	width := 0
	for _, m := range snap {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	for _, m := range snap {
		if _, err := fmt.Fprintf(w, "%-*s  %s\n", width, m.Name, m.Render()); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventsText renders events one per line.
func WriteEventsText(w io.Writer, events []Event) error {
	for _, e := range events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// DebugSnapshot is the JSON document the /debug/madeus endpoint serves:
// the full metric registry, the tail of the event ring, and (on processes
// running the history sampler) the per-tenant time series.
type DebugSnapshot struct {
	Metrics []Metric            `json:"metrics"`
	Events  []Event             `json:"events"`
	History map[string][]Sample `json:"history,omitempty"`
}

// WriteJSON renders a combined metrics+events snapshot as one JSON object.
func WriteJSON(w io.Writer, snap []Metric, events []Event) error {
	return WriteDebug(w, DebugSnapshot{Metrics: snap, Events: events})
}

// WriteDebug renders a full debug snapshot (metrics, events, history) as
// one JSON object.
func WriteDebug(w io.Writer, snap DebugSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("obs: encode snapshot: %w", err)
	}
	return nil
}
