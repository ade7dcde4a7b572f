package rtime

import (
	"sync"
	"sync/atomic"
	"testing"

	"aiac/internal/runenv"
)

func TestPingPong(t *testing.T) {
	cfg := runenv.Config{
		Delay: func(_, _, _ int, _ float64) float64 { return 0.001 },
	}
	const rounds = 20
	var got int32
	r := Runner{Speedup: 10000}
	r.Run(cfg, []runenv.Body{
		func(env runenv.Env) {
			for i := 0; i < rounds; i++ {
				env.Send(1, i, i, 8)
				m, ok := env.RecvWait()
				if !ok {
					t.Error("ping lost")
					return
				}
				if m.Payload.(int) != i {
					t.Errorf("bad echo %v at round %d", m.Payload, i)
					return
				}
				atomic.AddInt32(&got, 1)
			}
		},
		func(env runenv.Env) {
			for i := 0; i < rounds; i++ {
				m, ok := env.RecvWait()
				if !ok {
					t.Error("pong lost")
					return
				}
				env.Send(0, m.Kind, m.Payload, 8)
			}
		},
	})
	if got != rounds {
		t.Fatalf("completed %d/%d rounds", got, rounds)
	}
}

func TestWorkAdvancesModelTime(t *testing.T) {
	cfg := runenv.Config{
		ComputeTime: func(_ int, _, units float64) float64 { return units },
	}
	var before, after float64
	r := Runner{Speedup: 1000}
	r.Run(cfg, []runenv.Body{func(env runenv.Env) {
		before = env.Now()
		env.Work(5) // 5 model seconds = 5 wall ms at speedup 1000
		after = env.Now()
	}})
	if after-before < 4 {
		t.Fatalf("Work(5) advanced model time by only %g", after-before)
	}
}

func TestStopUnblocksReceivers(t *testing.T) {
	var unblocked atomic.Bool
	r := Runner{Speedup: 10000}
	r.Run(runenv.Config{}, []runenv.Body{
		func(env runenv.Env) {
			env.Sleep(0.01)
			env.Stop()
		},
		func(env runenv.Env) {
			_, ok := env.RecvWait()
			unblocked.Store(!ok && env.Stopped())
		},
	})
	if !unblocked.Load() {
		t.Fatal("blocked receiver was not released by Stop")
	}
}

func TestMaxTimeWatchdog(t *testing.T) {
	cfg := runenv.Config{MaxTime: 0.05}
	r := Runner{Speedup: 10000}
	iter := 0
	r.Run(cfg, []runenv.Body{func(env runenv.Env) {
		for !env.Stopped() && iter < 1e6 {
			env.Sleep(0.001)
			iter++
		}
	}})
	if iter >= 1e6 {
		t.Fatal("watchdog never fired")
	}
}

func TestPerPairFIFO(t *testing.T) {
	cfg := runenv.Config{
		Delay: func(_, _, bytes int, _ float64) float64 { return 1.0 / float64(bytes) },
	}
	var kinds []int
	r := Runner{Speedup: 100}
	r.Run(cfg, []runenv.Body{
		func(env runenv.Env) {
			env.Send(1, 0, nil, 1)   // slow
			env.Send(1, 1, nil, 100) // fast; must not overtake
		},
		func(env runenv.Env) {
			for i := 0; i < 2; i++ {
				m, ok := env.RecvWait()
				if !ok {
					t.Error("lost message")
					return
				}
				kinds = append(kinds, m.Kind)
			}
		},
	})
	if len(kinds) != 2 || kinds[0] != 0 || kinds[1] != 1 {
		t.Fatalf("messages reordered: %v", kinds)
	}
}

// fakeTransport is an in-memory Transport that records what the world
// hands it.
type fakeTransport struct {
	mu    sync.Mutex
	sent  []runenv.Msg
	stops int
}

func (f *fakeTransport) Send(m runenv.Msg) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, m)
}

func (f *fakeTransport) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stops++
}

type countingObserver struct{ n atomic.Int32 }

func (o *countingObserver) MsgDelivered(runenv.Msg, int) { o.n.Add(1) }

// TestWorldTransportSeam drives a 3-rank world that hosts ranks 0 and 1
// against an in-memory transport standing in for rank 2's process.
func TestWorldTransportSeam(t *testing.T) {
	const delay = 3.5
	early := runenv.Msg{From: 2, To: 1, Kind: 7, Payload: "early", Seq: 1}
	tests := []struct {
		name    string
		maxTime float64
		early   []runenv.Msg // delivered before Run attaches the bodies
		body0   func(env runenv.Env)
		body1   func(env runenv.Env, got *[]runenv.Msg)
		check   func(t *testing.T, f *fakeTransport, hooks []int, got []runenv.Msg, observed int)
	}{
		{
			name: "remote send",
			body0: func(env runenv.Env) {
				for i := 0; i < 3; i++ {
					now := env.Now()
					if at := env.Send(2, i, i, 8); at < now+delay || at > env.Now()+delay {
						t.Errorf("send %d returned arrival %g, want now+%g (now %g)", i, at, delay, now)
					}
				}
			},
			check: func(t *testing.T, f *fakeTransport, hooks []int, _ []runenv.Msg, _ int) {
				if len(f.sent) != 3 {
					t.Fatalf("transport got %d messages, want 3", len(f.sent))
				}
				for i, m := range f.sent {
					if m.From != 0 || m.To != 2 || m.Kind != i || m.Payload != i || m.Seq != uint64(i+1) {
						t.Errorf("transport message %d = %+v, want kind/payload %d and sender-local seq %d", i, m, i, i+1)
					}
				}
				if len(hooks) != 0 {
					t.Errorf("FaultHook consulted for remote sends (to %v)", hooks)
				}
			},
		},
		{
			name: "fault hook local only",
			body0: func(env runenv.Env) {
				env.Send(1, 0, nil, 8)
				env.Send(2, 0, nil, 8)
			},
			body1: func(env runenv.Env, got *[]runenv.Msg) {
				if m, ok := env.RecvWait(); ok {
					*got = append(*got, m)
				}
			},
			check: func(t *testing.T, f *fakeTransport, hooks []int, got []runenv.Msg, _ int) {
				if len(hooks) != 1 || hooks[0] != 1 {
					t.Errorf("FaultHook consulted for destinations %v, want [1]", hooks)
				}
				if len(f.sent) != 1 || len(got) != 1 {
					t.Errorf("%d remote and %d local deliveries, want 1 each", len(f.sent), len(got))
				}
			},
		},
		{
			name:    "early arrival",
			maxTime: 10, // a lost arrival fails the case instead of hanging it
			early:   []runenv.Msg{early},
			body1: func(env runenv.Env, got *[]runenv.Msg) {
				if m, ok := env.RecvWait(); ok {
					*got = append(*got, m)
				}
			},
			check: func(t *testing.T, _ *fakeTransport, _ []int, got []runenv.Msg, observed int) {
				if len(got) != 1 || got[0].Payload != "early" || got[0].From != 2 || got[0].Seq != 1 {
					t.Fatalf("body received %+v, want the early arrival", got)
				}
				if observed != 1 {
					t.Errorf("MsgDelivered fired %d times, want 1", observed)
				}
			},
		},
		{
			name: "env stop",
			body0: func(env runenv.Env) {
				env.Stop()
				env.Stop()
			},
			body1: func(env runenv.Env, _ *[]runenv.Msg) {
				env.RecvWait()
				env.Stop()
			},
			check: func(t *testing.T, f *fakeTransport, _ []int, _ []runenv.Msg, _ int) {
				if f.stops != 1 {
					t.Errorf("%d transport stop requests, want 1", f.stops)
				}
			},
		},
		{
			name:    "watchdog stop",
			maxTime: 0.05,
			body0: func(env runenv.Env) {
				for !env.Stopped() {
					env.Sleep(0.001)
				}
			},
			check: func(t *testing.T, f *fakeTransport, _ []int, _ []runenv.Msg, _ int) {
				if f.stops != 1 {
					t.Errorf("%d transport stop requests, want 1", f.stops)
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeTransport{}
			obs := &countingObserver{}
			var hookMu sync.Mutex
			var hooks []int
			var got []runenv.Msg
			w := NewWorld(3, []int{0, 1}, 10000, f)
			for _, m := range tc.early {
				if _, err := w.Deliver(m); err != nil {
					t.Fatal(err)
				}
			}
			idle := func(runenv.Env) {}
			bodies := []runenv.Body{idle, idle, nil}
			if tc.body0 != nil {
				bodies[0] = tc.body0
			}
			if tc.body1 != nil {
				bodies[1] = func(env runenv.Env) { tc.body1(env, &got) }
			}
			w.Run(runenv.Config{
				Procs:    3,
				MaxTime:  tc.maxTime,
				Observer: obs,
				Delay:    func(_, _, _ int, _ float64) float64 { return delay },
				FaultHook: func(_, to, _, _ int, _, _ float64) runenv.MsgFault {
					hookMu.Lock()
					defer hookMu.Unlock()
					hooks = append(hooks, to)
					return runenv.MsgFault{}
				},
			}, bodies)
			tc.check(t, f, hooks, got, int(obs.n.Load()))
		})
	}
}

// TestDeliverRejectsRemoteRank pins the delivery entry point's guard: an
// arrival addressed to a rank this process does not host is an error, not
// a message parked forever.
func TestDeliverRejectsRemoteRank(t *testing.T) {
	w := NewWorld(3, []int{0, 1}, 0, &fakeTransport{})
	for _, to := range []int{-1, 2, 3} {
		if _, err := w.Deliver(runenv.Msg{From: 0, To: to}); err == nil {
			t.Errorf("Deliver to rank %d accepted", to)
		}
	}
}
