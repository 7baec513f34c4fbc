package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Decision is the provenance record of one Algorithm 1 scheduling attempt:
// what the mapper scanned, why candidates were rejected, and what it chose.
// TS is simulated seconds. It turns "why was this app dropped" from a
// re-run-under-debugger question into a lookup.
type Decision struct {
	// TS is the simulated time of the decision.
	TS float64 `json:"ts"`
	// App and Bench identify the application under decision.
	App   int    `json:"app"`
	Bench string `json:"bench,omitempty"`
	// Outcome is "mapped", "stalled", or "dropped".
	Outcome string `json:"outcome"`
	// Candidates counts the (Vdd, DoP) points scanned in this attempt.
	Candidates int `json:"candidates"`
	// RejDeadline/RejBudget/RejRegion break down why candidates of this
	// attempt were rejected: WCET past the deadline, dark-silicon power
	// budget, or no viable region from the mapping heuristic.
	RejDeadline int `json:"rej_deadline"`
	RejBudget   int `json:"rej_budget"`
	RejRegion   int `json:"rej_region"`
	// Vdd, DoP, and Domains describe the chosen operating point and region
	// (mapped outcomes only).
	Vdd     float64 `json:"vdd,omitempty"`
	DoP     int     `json:"dop,omitempty"`
	Domains []int   `json:"domains,omitempty"`
	// WaitS is the queue time accumulated when the decision was taken.
	WaitS float64 `json:"wait_s"`
}

// DecisionLog is a bounded ring buffer of mapper decisions. When full,
// Record overwrites the oldest decision and counts the loss in Dropped. A
// nil DecisionLog discards records, so instrumented code records
// unconditionally — the same contract as Timeline.
type DecisionLog struct {
	ring[Decision]
}

// NewDecisionLog returns a log holding at most capacity decisions
// (minimum 1).
func NewDecisionLog(capacity int) *DecisionLog {
	return &DecisionLog{newRing[Decision](capacity)}
}

// Record appends d, overwriting the oldest decision when the buffer is
// full.
func (l *DecisionLog) Record(d Decision) {
	if l != nil {
		l.push(d)
	}
}

// Dropped returns how many decisions were overwritten after the buffer
// filled.
func (l *DecisionLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.drops()
}

// Decisions returns the buffered decisions oldest-first as a fresh slice.
func (l *DecisionLog) Decisions() []Decision {
	if l == nil {
		return nil
	}
	return l.items()
}

// decisionsJSON is the /decisions and -decisions-out document.
type decisionsJSON struct {
	Dropped   uint64     `json:"dropped"`
	Decisions []Decision `json:"decisions"`
}

// WriteJSON writes the buffered decisions (oldest-first) plus the drop
// count as an indented JSON document. A nil log writes an empty document,
// so the serving path needs no enabled/disabled branch.
func (l *DecisionLog) WriteJSON(w io.Writer) error {
	doc := decisionsJSON{Dropped: l.Dropped(), Decisions: l.Decisions()}
	if doc.Decisions == nil {
		doc.Decisions = []Decision{}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling decisions: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: writing decisions: %w", err)
	}
	return nil
}
