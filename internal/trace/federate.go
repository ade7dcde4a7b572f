// Trace federation: merging per-process causal logs of one distributed run
// into a single global event stream.
//
// Every process of a dist-backend run traces on its own model clock, all
// derived from the same host wall clock: a worker's clock starts at the
// moment it receives the coordinator's welcome, the coordinator's at the
// moment it broadcasts it. Each process records that origin as wall nanos
// (ProcTrace.Start), so federation can re-express every event on one global
// axis: with base = min(Start) over all processes,
//
//	offset(p) = (p.Start - base) / 1e9 * Speedup   (model seconds)
//
// is added to every timestamp of process p. All processes must share one
// Speedup — mixed time scales cannot be merged and are rejected.
//
// Message identity survives the wire unchanged — (Node, Seq) with Seq the
// sender-local runtime sequence — so cross-process sends can be matched to
// the Wire delivery records the receiving worker logged, turning each
// matched pair into a single Wire event spanning real send→delivery and
// giving the critical-path walk a "wire" blame category with no changes to
// the walk itself.
package trace

import (
	"fmt"
	"sort"
)

// ProcTrace is one process's contribution to a federated trace: the events
// it logged on its own model clock plus the metadata federation needs to
// line the clocks up.
type ProcTrace struct {
	Proc    int     // worker index; the coordinator uses len(workers)
	RunID   string  // dist run id, for cross-process consistency checks
	Ranks   []int   // ranks hosted by this process (coordinator: none)
	Start   int64   // wall-clock origin of the model clock, unix nanos
	Speedup float64 // model seconds per wall second
	Dropped uint64  // events the log's cap policy discarded before export
	Events  []Event
}

// WireDeliverNote marks the Wire record a receiving worker logs for each
// remote delivery (T0 = the sender's send timestamp on the sender's clock,
// T1 = the local delivery time); Federate consumes these when matching
// cross-process sends.
const WireDeliverNote = "deliver"

// Federate merges the worker traces and the optional coordinator wire trace
// of one distributed run into a single global log. It validates the set the
// same way metrics.FederateRuns does (no workers, missing worker, duplicate
// worker, duplicate node, mixed run IDs — plus mixed Speedups, which metrics
// never needed), normalizes every process onto one clock, and rewrites each
// cross-process send into a Wire event spanning the real send→delivery
// interval:
//
//   - a send matched to the receiver's delivery record becomes Kind Wire
//     with T1 = the actual (normalized) delivery time; the consumed
//     delivery record is dropped;
//   - an unmatched cross-process send was lost on the wire: it becomes a
//     Wire span with To = -1 (so it can never satisfy an arrival) and a
//     "lost" note;
//   - a surplus delivery record (a duplicate the wire manufactured) is kept
//     as a standalone Wire arrival.
//
// Same-process sends are left untouched. The result is a pure function of
// its inputs, independent of worker order: byte-identical ProcTraces yield
// a byte-identical merged stream.
func Federate(workers []ProcTrace, coord *ProcTrace) (*Log, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("trace: federate: no worker traces")
	}
	byIdx := make([]*ProcTrace, len(workers))
	runID := ""
	procOfRank := map[int]int{} // rank -> worker index
	for i := range workers {
		w := &workers[i]
		if w.Proc < 0 || w.Proc >= len(workers) {
			return nil, fmt.Errorf("trace: federate: worker index %d out of range [0,%d)", w.Proc, len(workers))
		}
		if byIdx[w.Proc] != nil {
			return nil, fmt.Errorf("trace: federate: duplicate worker %d", w.Proc)
		}
		byIdx[w.Proc] = w
		if runID == "" {
			runID = w.RunID
		} else if w.RunID != runID {
			return nil, fmt.Errorf("trace: federate: worker %d belongs to run %q, expected %q", w.Proc, w.RunID, runID)
		}
		for _, r := range w.Ranks {
			if prev, dup := procOfRank[r]; dup {
				return nil, fmt.Errorf("trace: federate: duplicate node %d (workers %d and %d)", r, prev, w.Proc)
			}
			procOfRank[r] = w.Proc
		}
	}
	for i, w := range byIdx {
		if w == nil {
			return nil, fmt.Errorf("trace: federate: missing worker %d", i)
		}
	}
	speedup := byIdx[0].Speedup
	for _, w := range byIdx[1:] {
		if w.Speedup != speedup {
			return nil, fmt.Errorf("trace: federate: worker %d runs at speedup %g, expected %g", w.Proc, w.Speedup, speedup)
		}
	}
	if coord != nil {
		if coord.RunID != "" && runID != "" && coord.RunID != runID {
			return nil, fmt.Errorf("trace: federate: coordinator belongs to run %q, expected %q", coord.RunID, runID)
		}
		if coord.Speedup != speedup {
			return nil, fmt.Errorf("trace: federate: coordinator runs at speedup %g, expected %g", coord.Speedup, speedup)
		}
	}

	// Clock-offset normalization: express every process's clock relative to
	// the earliest origin.
	base := byIdx[0].Start
	for _, w := range byIdx[1:] {
		if w.Start < base {
			base = w.Start
		}
	}
	if coord != nil && coord.Start < base {
		base = coord.Start
	}
	offset := func(start int64) float64 {
		return float64(start-base) / 1e9 * speedup
	}

	// Pass 1: collect the normalized events of every worker, separating the
	// remote-delivery records (consumed by send matching below) from the
	// rest. A delivery record's T0 is the sender's send timestamp, stamped
	// on the *sender's* clock — normalize it with the sender's offset.
	type msgKey struct {
		node int
		seq  uint64
	}
	var evs []Event
	deliveries := map[msgKey][]Event{}
	for _, w := range byIdx {
		off := offset(w.Start)
		for _, ev := range w.Events {
			ev.Proc = w.Proc
			ev.T1 += off
			if ev.Kind == Wire && ev.Note == WireDeliverNote {
				sendOff := off
				if home, known := procOfRank[ev.Node]; known {
					sendOff = offset(byIdx[home].Start)
				}
				ev.T0 += sendOff
				k := msgKey{ev.Node, ev.Seq}
				deliveries[k] = append(deliveries[k], ev)
				continue
			}
			ev.T0 += off
			evs = append(evs, ev)
		}
	}

	// Pass 2: rewrite cross-process sends against the delivery records.
	for i := range evs {
		ev := &evs[i]
		if !isMessage(ev.Kind) || ev.Kind == Wire || ev.To < 0 {
			continue
		}
		fromProc, okF := procOfRank[ev.Node]
		toProc, okT := procOfRank[ev.To]
		if !okF || !okT || fromProc == toProc {
			continue // local hop (or unknown rank): the modeled times stand
		}
		k := msgKey{ev.Node, ev.Seq}
		if ds := deliveries[k]; len(ds) > 0 {
			d := ds[0]
			deliveries[k] = ds[1:]
			// The delivery record carries both ends of the flight: the
			// sender's send instant (Msg.SendT) and the arrival. The send
			// event's own T0 may be stamped after Send returned, by which
			// time a fast relay can already have delivered the message.
			ev.Kind = Wire
			ev.T0, ev.T1 = d.T0, d.T1
		} else {
			ev.Kind = Wire
			if ev.Note == "" {
				ev.Note = fmt.Sprintf("lost → %d", ev.To)
			} else {
				ev.Note = fmt.Sprintf("%s; lost → %d", ev.Note, ev.To)
			}
			ev.To = -1
		}
	}
	// Surplus delivery records: duplicates the wire manufactured. Keep them
	// as standalone Wire arrivals, in deterministic order.
	var spare []Event
	for _, ds := range deliveries {
		spare = append(spare, ds...)
	}
	sortEventsTotal(spare)
	evs = append(evs, spare...)

	if coord != nil {
		off := offset(coord.Start)
		for _, ev := range coord.Events {
			ev.Proc = len(workers)
			ev.T0 += off
			ev.T1 += off
			evs = append(evs, ev)
		}
	}

	sortEventsTotal(evs)
	out := &Log{}
	out.SetEvents(evs)
	return out, nil
}

// sortEventsTotal sorts events by a total order over every field, so the
// result is independent of input permutation. Its primary keys (T0, Node,
// Kind) match Log.Events()'s stable sort, which therefore preserves this
// order.
func sortEventsTotal(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		switch {
		case a.T0 != b.T0:
			return a.T0 < b.T0
		case a.Node != b.Node:
			return a.Node < b.Node
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Seq != b.Seq:
			return a.Seq < b.Seq
		case a.T1 != b.T1:
			return a.T1 < b.T1
		case a.To != b.To:
			return a.To < b.To
		case a.Proc != b.Proc:
			return a.Proc < b.Proc
		case a.Iter != b.Iter:
			return a.Iter < b.Iter
		case a.Xfer != b.Xfer:
			return a.Xfer < b.Xfer
		default:
			return a.Note < b.Note
		}
	})
}
