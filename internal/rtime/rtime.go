// Package rtime is a real-concurrency runtime for the process model in
// internal/runenv: every process is a goroutine running truly in parallel,
// Work/Sleep consume (scaled) wall-clock time, and messages are delivered by
// timer goroutines after their modeled link delay.
//
// It is the live counterpart of the deterministic internal/vtime runtime:
// the same engine code runs on both. rtime executions are not reproducible
// run-to-run (that is the point — real asynchronism), so tests against it
// assert convergence and solution accuracy rather than exact timings.
//
// A World may host only some of the ranks in this process; a Transport
// carries the messages to and from the others. The multi-process dist
// backend (internal/dtime) is rtime plus a coordinator transport, and
// Runner is the all-local case.
package rtime

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// DefaultSpeedup is the model-to-wall time scale used when none is given:
// one model second per wall millisecond.
const DefaultSpeedup = 1000

// Runner executes process bodies with real concurrency.
type Runner struct {
	// Speedup scales model time to wall time: one model second takes
	// 1/Speedup wall seconds. Zero means DefaultSpeedup.
	Speedup float64
}

// Run implements runenv.Runner: it is the all-local case of a World.
func (r Runner) Run(cfg runenv.Config, bodies []runenv.Body) float64 {
	local := make([]int, len(bodies))
	for i := range local {
		local[i] = i
	}
	return NewWorld(len(bodies), local, r.Speedup, nil).Run(cfg, bodies)
}

// Transport carries the messages of a world whose ranks are spread over
// several OS processes (see internal/dtime). Send is called from body
// goroutines, so implementations must be safe for concurrent use.
type Transport interface {
	// Send ships m, which already carries its sender-local Seq and its
	// in-memory payload, to the rank m.To hosted elsewhere. The real
	// transport latency replaces the modeled delay, and faults on the
	// link are the transport's business: Config.FaultHook is not
	// consulted for these sends.
	Send(m runenv.Msg)
	// Stop asks the rest of the world to stop. A world calls it at most
	// once, on its first Env.Stop, MaxTime or cancellation stop, just
	// before it stops locally.
	Stop()
}

// World is an rtime world of which this process hosts some ranks: a
// goroutine per local body, a scaled wall clock, per-pair FIFO delivery
// between local ranks, and a Transport for every other rank.
type World struct {
	cfg     runenv.Config
	speedup float64
	start   time.Time
	procs   []*wproc // indexed by rank; nil for ranks hosted elsewhere
	tr      Transport
	stopReq sync.Once

	mu       sync.Mutex
	stopped  bool
	attached bool         // Run has set cfg; arrivals go straight to mailboxes
	early    []runenv.Msg // arrivals from elsewhere before Run attached the bodies
	end      float64
	pairs    map[[2]int]*pairState
	delWG    sync.WaitGroup
}

// NewWorld creates a world of total ranks of which the local ones are
// hosted in this process; sends to any other rank go to tr, which may be
// nil when every rank is local. The model clock starts now. speedup <= 0
// means DefaultSpeedup.
func NewWorld(total int, local []int, speedup float64, tr Transport) *World {
	if speedup <= 0 {
		speedup = DefaultSpeedup
	}
	w := &World{
		speedup: speedup,
		start:   time.Now(),
		procs:   make([]*wproc, total),
		tr:      tr,
		pairs:   make(map[[2]int]*pairState),
	}
	for _, r := range local {
		p := &wproc{id: r, w: w}
		p.cond = sync.NewCond(&p.mu)
		w.procs[r] = p
	}
	return w
}

// pairState serializes deliveries per (from, to) pair: each send takes a
// ticket, and its deliverer goroutine — after sleeping out the modeled
// delay — waits until every earlier ticket on the same pair has been
// delivered. This makes per-pair FIFO a hard guarantee rather than a
// property of timer wakeup ordering.
type pairState struct {
	mu          sync.Mutex
	cond        *sync.Cond
	nextTicket  uint64
	nextDeliver uint64
	lastArrival float64
}

type wproc struct {
	id  int
	w   *World
	rng *rand.Rand
	// seq is the sender-local event counter behind Msg.Seq; only the
	// process's own goroutine touches it (matching the vtime runtime's
	// per-process counters, so message identity never encodes how the
	// scheduler interleaved other processes).
	seq uint64
	// lastSend is the Msg.Seq of the primary copy of the most recent Send.
	lastSend uint64

	mu      sync.Mutex
	cond    *sync.Cond
	mailbox []runenv.Msg
}

func (p *wproc) nextSeq() uint64 {
	p.seq++
	return p.seq
}

// Run executes bodies[r] as rank r for every rank hosted here and returns
// the final local time. len(bodies) is the world size, and the entries of
// ranks hosted elsewhere are nil, so Run implements runenv.Runner for a
// world spread over several processes.
func (w *World) Run(cfg runenv.Config, bodies []runenv.Body) float64 {
	if len(bodies) != len(w.procs) {
		panic(fmt.Sprintf("rtime: %d bodies for a world of %d ranks", len(bodies), len(w.procs)))
	}
	for r, p := range w.procs {
		if (p == nil) != (bodies[r] == nil) {
			panic(fmt.Sprintf("rtime: the body of rank %d does not match where it is hosted", r))
		}
		if p != nil {
			p.rng = rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
		}
	}
	w.cfg = cfg.Normalize()
	w.attach()
	var watchdog *time.Timer
	if cfg.MaxTime > 0 {
		watchdog = time.AfterFunc(w.toWall(cfg.MaxTime), w.requestStop)
	}
	if cfg.Canceled != nil {
		// Cancellation poller: the real-time runtime has no between-event
		// seam, so poll the flag on a short wall-clock period and stop the
		// world like the watchdog does.
		pollDone := make(chan struct{})
		defer close(pollDone)
		go func() {
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-pollDone:
					return
				case <-tick.C:
					if cfg.Canceled() {
						w.requestStop()
						return
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for i, body := range bodies {
		if body == nil {
			continue
		}
		wg.Add(1)
		go func(p *wproc, body runenv.Body) {
			defer wg.Done()
			body(&env{p: p})
		}(w.procs[i], body)
	}
	wg.Wait()
	w.Halt()
	if watchdog != nil {
		watchdog.Stop()
	}
	w.delWG.Wait()
	end := w.now()
	w.mu.Lock()
	w.end = end
	w.mu.Unlock()
	return end
}

// attach flushes the arrivals that came in before Run, in arrival order,
// and then lets Deliver hand arrivals straight to the mailboxes.
func (w *World) attach() {
	for {
		w.mu.Lock()
		early := w.early
		w.early = nil
		if len(early) == 0 {
			w.attached = true
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		for _, m := range early {
			w.enqueue(m)
		}
	}
}

// Deliver is the entry point for a message that arrived from elsewhere: it
// stamps RecvT, which it returns, and hands the message to its local
// rank's mailbox. Arrivals that come before Run attached the bodies wait,
// in order, until it does (a fast peer can send before this process has
// built its bodies).
func (w *World) Deliver(m runenv.Msg) (float64, error) {
	if m.To < 0 || m.To >= len(w.procs) || w.procs[m.To] == nil {
		return 0, fmt.Errorf("rtime: arrival for rank %d, which is not hosted here", m.To)
	}
	m.RecvT = w.now()
	w.mu.Lock()
	if !w.attached {
		w.early = append(w.early, m)
		w.mu.Unlock()
		return m.RecvT, nil
	}
	w.mu.Unlock()
	w.enqueue(m)
	return m.RecvT, nil
}

// Start returns the wall-clock origin of the model clock.
func (w *World) Start() time.Time { return w.start }

// End returns the final local time of the last Run (0 before one ends).
func (w *World) End() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.end
}

func (w *World) now() float64 {
	return time.Since(w.start).Seconds() * w.speedup
}

func (w *World) toWall(model float64) time.Duration {
	return time.Duration(model / w.speedup * float64(time.Second))
}

// Halt stops the world locally, without a transport stop request: it is
// how a transport applies the global stop or gives up on a failed link.
func (w *World) Halt() {
	w.mu.Lock()
	already := w.stopped
	w.stopped = true
	w.mu.Unlock()
	if already {
		return
	}
	for _, p := range w.procs {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// requestStop is a stop from inside the world (Env.Stop, the MaxTime
// watchdog, cancellation): the transport hears of it once, then the world
// stops locally.
func (w *World) requestStop() {
	if w.tr != nil {
		w.stopReq.Do(w.tr.Stop)
	}
	w.Halt()
}

func (w *World) isStopped() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stopped
}

type env struct {
	p *wproc
}

func (e *env) Rank() int     { return e.p.id }
func (e *env) NumProcs() int { return len(e.p.w.procs) }
func (e *env) Now() float64  { return e.p.w.now() }

// preciseWait waits for d with sub-timer-granularity accuracy: it sleeps
// for the bulk and spins (yielding) through the last stretch. Plain
// time.Sleep rounds tiny durations up to the OS timer period (tens of
// microseconds), which at high Speedup would randomly inflate modeled
// compute and network times by an order of magnitude or more.
func preciseWait(d time.Duration) {
	if d <= 0 {
		return
	}
	const spinLimit = 100 * time.Microsecond
	target := time.Now().Add(d)
	if d > spinLimit {
		time.Sleep(d - spinLimit)
	}
	for time.Now().Before(target) {
		runtime.Gosched()
	}
}

func (e *env) Work(units float64) {
	w := e.p.w
	if units <= 0 || w.isStopped() {
		return
	}
	d := w.cfg.ComputeTime(e.p.id, w.now(), units)
	preciseWait(w.toWall(d))
}

func (e *env) Sleep(seconds float64) {
	w := e.p.w
	if seconds <= 0 || w.isStopped() {
		return
	}
	preciseWait(w.toWall(seconds))
}

func (e *env) Send(to, kind int, payload any, bytes int) float64 {
	w := e.p.w
	if to < 0 || to >= len(w.procs) {
		panic(fmt.Sprintf("rtime: send to invalid process %d", to))
	}
	now := w.now()
	delay := w.cfg.Delay(e.p.id, to, bytes, now)
	if w.procs[to] == nil {
		// Hosted elsewhere: the transport carries the message, so its real
		// latency replaces the modeled delay. The modeled arrival is still
		// returned so sender-side pacing (the paper's Figure-4 mutual
		// exclusion) behaves as on the other runtimes.
		seq := e.p.nextSeq()
		e.p.lastSend = seq
		w.tr.Send(runenv.Msg{
			From: e.p.id, To: to, Kind: kind, Payload: payload, Bytes: bytes,
			SendT: now, Seq: seq,
		})
		return now + delay
	}
	var f runenv.MsgFault
	if w.cfg.FaultHook != nil {
		f = w.cfg.FaultHook(e.p.id, to, kind, bytes, now, delay)
	}
	arrival := now + delay + f.ExtraDelay

	// The primary copy's seq is allocated before any duplicate copies, and
	// even when the message is dropped — the same order the vtime runtime
	// uses — so (rank, seq) message identities agree across the runtimes.
	seq := e.p.nextSeq()
	e.p.lastSend = seq

	// Duplicate copies are delivered by free-running goroutines outside the
	// per-pair FIFO serialization — reordering is the point of the fault.
	for _, dd := range f.DupDelays {
		dm := runenv.Msg{
			From: e.p.id, To: to, Kind: kind, Payload: payload, Bytes: bytes,
			SendT: now, Seq: e.p.nextSeq(),
		}
		w.delWG.Add(1)
		w.deliverLoose(dm, w.toWall(delay+dd))
	}
	if f.Drop {
		// Lost on the wire: the sender still observes a plausible arrival.
		return arrival
	}
	if f.Reorder {
		m := runenv.Msg{
			From: e.p.id, To: to, Kind: kind, Payload: payload, Bytes: bytes,
			SendT: now, Seq: seq,
		}
		w.delWG.Add(1)
		w.deliverLoose(m, w.toWall(arrival-now))
		return arrival
	}

	key := [2]int{e.p.id, to}
	w.mu.Lock()
	ps := w.pairs[key]
	if ps == nil {
		ps = &pairState{}
		ps.cond = sync.NewCond(&ps.mu)
		w.pairs[key] = ps
	}
	w.delWG.Add(1)
	w.mu.Unlock()

	ps.mu.Lock()
	ticket := ps.nextTicket
	ps.nextTicket++
	if arrival <= ps.lastArrival {
		arrival = ps.lastArrival + 1e-9 // keep modeled arrivals increasing
	}
	ps.lastArrival = arrival
	ps.mu.Unlock()

	m := runenv.Msg{
		From: e.p.id, To: to, Kind: kind, Payload: payload, Bytes: bytes,
		SendT: now, Seq: seq,
	}
	wait := w.toWall(arrival - now)
	go func() {
		defer w.delWG.Done()
		preciseWait(wait)
		// serialize with earlier sends on this pair
		ps.mu.Lock()
		for ps.nextDeliver != ticket {
			ps.cond.Wait()
		}
		ps.mu.Unlock()
		m.RecvT = w.now()
		w.enqueue(m)
		ps.mu.Lock()
		ps.nextDeliver++
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}()
	return arrival
}

// deliverLoose delivers m after the given wall delay without per-pair FIFO
// serialization (used for duplicated and reordered fault copies).
func (w *World) deliverLoose(m runenv.Msg, wait time.Duration) {
	go func() {
		defer w.delWG.Done()
		preciseWait(wait)
		m.RecvT = w.now()
		w.enqueue(m)
	}()
}

// enqueue appends m to its destination's mailbox and reports the delivery.
func (w *World) enqueue(m runenv.Msg) {
	dst := w.procs[m.To]
	dst.mu.Lock()
	dst.mailbox = append(dst.mailbox, m)
	depth := len(dst.mailbox)
	dst.cond.Broadcast()
	dst.mu.Unlock()
	if obs := w.cfg.Observer; obs != nil {
		obs.MsgDelivered(m, depth)
	}
}

func (e *env) Recv() (runenv.Msg, bool) {
	p := e.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.mailbox) == 0 {
		return runenv.Msg{}, false
	}
	m := p.mailbox[0]
	p.mailbox = p.mailbox[1:]
	return m, true
}

func (e *env) RecvWait() (runenv.Msg, bool) {
	p := e.p
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.mailbox) == 0 {
		if p.w.isStopped() {
			return runenv.Msg{}, false
		}
		p.cond.Wait()
	}
	m := p.mailbox[0]
	p.mailbox = p.mailbox[1:]
	return m, true
}

func (e *env) Pending() int {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	return len(e.p.mailbox)
}

func (e *env) Stopped() bool { return e.p.w.isStopped() }

func (e *env) Stop() { e.p.w.requestStop() }

func (e *env) Rand() *rand.Rand { return e.p.rng }

func (e *env) LastSendSeq() uint64 { return e.p.lastSend }

func (e *env) Trace(ev trace.Event) {
	if t := e.p.w.cfg.Trace; t != nil {
		t.Add(ev)
	}
}
