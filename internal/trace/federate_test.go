package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// twoWorkerRun builds a minimal two-process run: worker 0 hosts node 0,
// worker 1 hosts node 1, one cross-process message each way, plus a local
// compute span per node and a halt mark. Worker 1's clock starts 2 model
// seconds after worker 0's (Speedup 1000, so 2e6 wall nanos).
func twoWorkerRun() []ProcTrace {
	w0 := ProcTrace{
		Proc: 0, RunID: "r1", Ranks: []int{0}, Start: 1_000_000_000, Speedup: 1000,
		Events: []Event{
			{T0: 0, T1: 1, Node: 0, To: -1, Kind: Compute, Iter: 0, HaloL: -1, HaloR: -1},
			// Cross-process send: modeled transit 1→1.1; the receiver's
			// delivery record will stretch it to the real arrival.
			{T0: 1, T1: 1.1, Node: 0, To: 1, Kind: SendRight, Iter: 0, Seq: 1},
			// Delivery of worker 1's message, logged on worker 0: T0 is the
			// sender's clock (0.5 on worker 1 = 2.5 global).
			{T0: 0.5, T1: 3, Node: 1, To: 0, Kind: Wire, Iter: -1, Seq: 1, Note: WireDeliverNote},
			{T0: 3, T1: 4, Node: 0, To: 0, Kind: Compute, Iter: 1, HaloL: 0, HaloR: 0},
			{T0: 4, T1: 4, Node: 0, To: -1, Kind: Mark, Iter: -1, Note: "halt"},
		},
	}
	w1 := ProcTrace{
		Proc: 1, RunID: "r1", Ranks: []int{1}, Start: 1_002_000_000, Speedup: 1000,
		Events: []Event{
			{T0: 0, T1: 0.5, Node: 1, To: -1, Kind: Compute, Iter: 0, HaloL: -1, HaloR: -1},
			{T0: 0.5, T1: 0.6, Node: 1, To: 0, Kind: SendRight, Iter: 0, Seq: 1},
			// Delivery of worker 0's send (sent at 1 on worker 0's clock,
			// which is also global 1; arrives at local 0.2 = global 2.2).
			{T0: 1, T1: 0.2, Node: 0, To: 1, Kind: Wire, Iter: -1, Seq: 1, Note: WireDeliverNote},
		},
	}
	return []ProcTrace{w0, w1}
}

func TestFederateValidation(t *testing.T) {
	base := twoWorkerRun()
	cases := []struct {
		name    string
		mutate  func(w []ProcTrace) ([]ProcTrace, *ProcTrace)
		wantErr string
	}{
		{"no workers", func(w []ProcTrace) ([]ProcTrace, *ProcTrace) {
			return nil, nil
		}, "no worker traces"},
		{"index out of range", func(w []ProcTrace) ([]ProcTrace, *ProcTrace) {
			w[1].Proc = 5
			return w, nil
		}, "worker index 5 out of range [0,2)"},
		{"duplicate worker", func(w []ProcTrace) ([]ProcTrace, *ProcTrace) {
			w[1].Proc = 0
			return w, nil
		}, "duplicate worker 0"},
		{"mixed run IDs", func(w []ProcTrace) ([]ProcTrace, *ProcTrace) {
			w[1].RunID = "r2"
			return w, nil
		}, `worker 1 belongs to run "r2", expected "r1"`},
		{"duplicate node", func(w []ProcTrace) ([]ProcTrace, *ProcTrace) {
			w[1].Ranks = []int{0}
			return w, nil
		}, "duplicate node 0 (workers 0 and 1)"},
		{"mixed speedups", func(w []ProcTrace) ([]ProcTrace, *ProcTrace) {
			w[1].Speedup = 50
			return w, nil
		}, "worker 1 runs at speedup 50, expected 1000"},
		{"coordinator wrong run", func(w []ProcTrace) ([]ProcTrace, *ProcTrace) {
			return w, &ProcTrace{Proc: 2, RunID: "other", Speedup: 1000}
		}, `coordinator belongs to run "other"`},
		{"coordinator wrong speedup", func(w []ProcTrace) ([]ProcTrace, *ProcTrace) {
			return w, &ProcTrace{Proc: 2, RunID: "r1", Speedup: 1}
		}, "coordinator runs at speedup 1, expected 1000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := append([]ProcTrace(nil), base...)
			for i := range w {
				w[i].Events = append([]Event(nil), w[i].Events...)
			}
			ws, coord := tc.mutate(w)
			_, err := Federate(ws, coord)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestFederateClockNormalizationAndRewrite checks the heart of federation:
// offsets are applied per process, cross-process sends become Wire spans
// ending at the real delivery time, and delivery records are consumed.
func TestFederateClockNormalizationAndRewrite(t *testing.T) {
	fed, err := Federate(twoWorkerRun(), nil)
	if err != nil {
		t.Fatal(err)
	}
	evs := fed.Events()

	var wires []Event
	for _, ev := range evs {
		if ev.Note == WireDeliverNote {
			t.Fatalf("delivery record survived federation: %+v", ev)
		}
		if ev.Kind == Wire {
			wires = append(wires, ev)
		}
	}
	if len(wires) != 2 {
		t.Fatalf("wire spans = %d, want 2: %+v", len(wires), wires)
	}
	// Worker 0's send: sent at global 1, delivered at worker 1's local 0.2
	// = global 2.2 (offset 2s).
	var w0send, w1send *Event
	for i := range wires {
		switch wires[i].Node {
		case 0:
			w0send = &wires[i]
		case 1:
			w1send = &wires[i]
		}
	}
	if w0send == nil || w1send == nil {
		t.Fatalf("missing a direction: %+v", wires)
	}
	if w0send.T0 != 1 || math.Abs(w0send.T1-2.2) > 1e-9 || w0send.To != 1 {
		t.Errorf("worker 0's send = %+v, want span [1, 2.2] to 1", w0send)
	}
	// Worker 1's send: local 0.5 = global 2.5; delivered at worker 0's
	// local 3 = global 3.
	if math.Abs(w1send.T0-2.5) > 1e-9 || w1send.T1 != 3 || w1send.To != 0 {
		t.Errorf("worker 1's send = %+v, want span [2.5, 3] to 0", w1send)
	}
	// Worker 1's compute spans carry the +2 s offset.
	for _, ev := range evs {
		if ev.Kind == Compute && ev.Node == 1 && ev.Iter == 0 {
			if ev.T0 != 2 || ev.T1 != 2.5 || ev.Proc != 1 {
				t.Errorf("worker 1 compute = %+v, want [2, 2.5] proc 1", ev)
			}
		}
	}

	// The federated stream feeds the unchanged critical-path walk and
	// produces nonzero wire blame.
	cp := Analyze(fed.Events())
	if cp == nil || len(cp.Segments) == 0 {
		t.Fatal("no critical path over the federated stream")
	}
	if cp.ByKind[SegWire] <= 0 {
		t.Fatalf("wire blame = %g, want > 0 (breakdown %v)", cp.ByKind[SegWire], cp.ByKind)
	}
}

// TestFederateSendStampedLate: a send event stamped after Send returned
// (its T0 later than the real send instant) whose message a fast relay
// already delivered still federates into a forward Wire span, running from
// the send instant the delivery record carries to the arrival.
func TestFederateSendStampedLate(t *testing.T) {
	w := twoWorkerRun()
	// Worker 0's send event: stamped at 2.4, but the message left at 1 and
	// landed at global 2.2.
	w[0].Events[1].T0 = 2.4
	fed, err := Federate(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range fed.Events() {
		if ev.Kind == Wire && ev.Node == 0 {
			if ev.T0 != 1 || math.Abs(ev.T1-2.2) > 1e-9 {
				t.Fatalf("worker 0's send = %+v, want span [1, 2.2]", ev)
			}
			return
		}
	}
	t.Fatal("worker 0's send did not become a Wire span")
}

// TestFederateLostAndDuplicate: an unmatched send is marked lost (To = -1
// so it cannot satisfy an arrival), a surplus delivery survives as a
// standalone arrival.
func TestFederateLostAndDuplicate(t *testing.T) {
	w := twoWorkerRun()
	// Drop worker 1's delivery record (message 0→1 lost) and duplicate the
	// record on worker 0 (message 1→0 duplicated by the wire).
	w[1].Events = w[1].Events[:2]
	dup := w[0].Events[2]
	dup.T1 = 3.5
	w[0].Events = append(w[0].Events, dup)

	fed, err := Federate(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lost, spare int
	for _, ev := range fed.Events() {
		if ev.Kind != Wire {
			continue
		}
		if strings.Contains(ev.Note, "lost → 1") {
			lost++
			if ev.To != -1 {
				t.Errorf("lost send keeps To = %d", ev.To)
			}
		}
		if ev.Note == WireDeliverNote {
			spare++
			if ev.Node != 1 || ev.To != 0 {
				t.Errorf("surplus delivery = %+v", ev)
			}
		}
	}
	if lost != 1 || spare != 1 {
		t.Fatalf("lost = %d, surplus = %d, want 1 and 1", lost, spare)
	}
}

// TestFederateDeterministicUnderPermutation is the pure-function pin: the
// merged CSV, Chrome JSON and critical-path blame must be byte-identical
// when the worker list is permuted and when federation reruns on identical
// inputs.
func TestFederateDeterministicUnderPermutation(t *testing.T) {
	coord := &ProcTrace{
		Proc: 2, RunID: "r1", Start: 999_000_000, Speedup: 1000,
		Events: []Event{
			{T0: 0.1, T1: 0.2, Node: 0, To: -1, Kind: Wire, Iter: -1, Seq: 1, Note: "relay to 1 (64 B)"},
			{T0: 0.3, T1: 0.3, Node: -1, To: -1, Kind: Mark, Iter: -1, Note: "hb worker 0"},
		},
	}
	render := func(workers []ProcTrace) (string, string) {
		fed, err := Federate(workers, coord)
		if err != nil {
			t.Fatal(err)
		}
		var csv, chrome bytes.Buffer
		if err := fed.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := WriteChrome(fed, &chrome); err != nil {
			t.Fatal(err)
		}
		return csv.String(), chrome.String()
	}

	w := twoWorkerRun()
	csv1, chrome1 := render([]ProcTrace{w[0], w[1]})
	csv2, chrome2 := render([]ProcTrace{w[1], w[0]}) // permuted
	csv3, chrome3 := render([]ProcTrace{w[0], w[1]}) // rerun
	if csv1 != csv2 || csv1 != csv3 {
		t.Fatalf("federated CSV not deterministic:\n%s\nvs\n%s", csv1, csv2)
	}
	if chrome1 != chrome2 || chrome1 != chrome3 {
		t.Fatalf("federated Chrome JSON not deterministic")
	}
	// Proc assignment must reflect the declared index, not slice position.
	if !strings.Contains(chrome1, `"proc 2"`) {
		t.Fatalf("coordinator track missing from Chrome export:\n%.400s", chrome1)
	}
}

// TestFederateCSVRoundTrip: a federated stream written to CSV and read back
// yields the identical critical path (the aiacreport workflow).
func TestFederateCSVRoundTrip(t *testing.T) {
	fed, err := Federate(twoWorkerRun(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fed.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Analyze(fed.Events()), Analyze(back)
	if a.Total() != b.Total() || a.ByKind != b.ByKind {
		t.Fatalf("critical path changed across CSV round trip: %v vs %v", a.ByKind, b.ByKind)
	}
}
