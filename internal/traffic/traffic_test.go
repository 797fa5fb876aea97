package traffic

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// lab is the shared-bottleneck topology from the paper's §6.
type lab struct {
	s     *sim.Simulator
	fwd   *sim.Link
	class *sim.Classifier
}

func newLab(rate units.BitsPerSecond, queueBDPs float64) *lab {
	s := sim.New()
	class := sim.NewClassifier()
	bdp := rate.BytesIn(5 * time.Millisecond)
	fwd := sim.NewLink(s, sim.LinkConfig{
		Rate:       rate,
		Delay:      2500 * time.Microsecond,
		QueueLimit: units.Bytes(float64(bdp) * queueBDPs),
	}, class)
	return &lab{s: s, fwd: fwd, class: class}
}

func revCfg() sim.LinkConfig {
	return sim.LinkConfig{Rate: 1 * units.Gbps, Delay: 2500 * time.Microsecond}
}

func TestUDPFlowDelayOnIdleLink(t *testing.T) {
	l := newLab(40*units.Mbps, 4)
	u := NewUDPFlow(l.s, 1, l.fwd, l.class, 5*units.Mbps, 1500)
	u.Start()
	l.s.At(2*time.Second, u.Stop)
	l.s.Run()
	if u.Sent == 0 || u.Arrived == 0 {
		t.Fatal("no packets flowed")
	}
	// Idle 40 Mbps link: one-way delay ≈ 2.5 ms propagation + 0.3 ms
	// serialization.
	mean := u.MeanDelay()
	if mean < 2*time.Millisecond || mean > 4*time.Millisecond {
		t.Errorf("idle-link delay = %v, want ≈ 2.8ms", mean)
	}
	if got := u.LossRate(); got != 0 {
		t.Errorf("idle-link loss = %v", got)
	}
	// CBR rate check: 5 Mbps of 1500 B packets is ~417 pkt/s.
	pps := float64(u.Sent) / 2
	if pps < 400 || pps > 430 {
		t.Errorf("send rate = %.0f pkt/s, want ≈ 417", pps)
	}
}

func TestUDPFlowDelayUnderCongestion(t *testing.T) {
	// A bulk TCP flow fills the queue; UDP one-way delay inflates toward
	// base + queue (Fig 8a's control condition).
	l := newLab(40*units.Mbps, 4)
	u := NewUDPFlow(l.s, 1, l.fwd, l.class, 5*units.Mbps, 1500)
	bulk := NewBulkFlow(l.s, 2, l.fwd, l.class, revCfg(), 40*units.MB)
	u.Start()
	bulk.StartAt(0)
	l.s.At(5*time.Second, u.Stop)
	l.s.RunUntil(6 * time.Second)
	congested := u.MeanDelay()
	if congested < 8*time.Millisecond {
		t.Errorf("congested delay = %v, want inflated well above 2.8ms", congested)
	}
}

func TestBulkFlowThroughput(t *testing.T) {
	l := newLab(40*units.Mbps, 4)
	b := NewBulkFlow(l.s, 1, l.fwd, l.class, revCfg(), 20*units.MB)
	b.StartAt(100 * time.Millisecond)
	l.s.Run()
	if !b.Completed {
		t.Fatal("bulk flow did not complete")
	}
	got := b.Throughput().Mbps()
	if got < 30 || got > 41 {
		t.Errorf("solo bulk throughput = %.1f Mbps, want ≈ 40", got)
	}
}

func TestHTTPLoadResponseTimes(t *testing.T) {
	l := newLab(40*units.Mbps, 4)
	h := NewHTTPLoad(l.s, 1, l.fwd, l.class, revCfg(), 3*units.MB, 100*time.Millisecond)
	h.StartAt(0)
	l.s.At(10*time.Second, h.Stop)
	l.s.RunUntil(12 * time.Second)
	if len(h.ResponseTimes) < 5 {
		t.Fatalf("only %d responses", len(h.ResponseTimes))
	}
	// 3 MB at 40 Mbps is 600 ms of transfer; with handshake and slow start
	// the first response is slower, later ones near that floor.
	mean := h.MeanResponseTime()
	if mean < 500*time.Millisecond || mean > 1200*time.Millisecond {
		t.Errorf("idle-link response time = %v, want ≈ 0.6-1s", mean)
	}
}

func TestHTTPLoadSlowsUnderCongestion(t *testing.T) {
	idle := func() time.Duration {
		l := newLab(40*units.Mbps, 4)
		h := NewHTTPLoad(l.s, 1, l.fwd, l.class, revCfg(), 3*units.MB, 100*time.Millisecond)
		h.StartAt(0)
		l.s.At(8*time.Second, h.Stop)
		l.s.RunUntil(10 * time.Second)
		return h.MeanResponseTime()
	}()
	congested := func() time.Duration {
		l := newLab(40*units.Mbps, 4)
		h := NewHTTPLoad(l.s, 1, l.fwd, l.class, revCfg(), 3*units.MB, 100*time.Millisecond)
		bulk := NewBulkFlow(l.s, 2, l.fwd, l.class, revCfg(), 100*units.MB)
		h.StartAt(0)
		bulk.StartAt(0)
		l.s.At(8*time.Second, h.Stop)
		l.s.RunUntil(10 * time.Second)
		return h.MeanResponseTime()
	}()
	if congested <= idle {
		t.Errorf("congested response time %v not above idle %v", congested, idle)
	}
}

func TestUDPFlowPanicsOnBadConfig(t *testing.T) {
	l := newLab(40*units.Mbps, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewUDPFlow(l.s, 1, l.fwd, l.class, 0, 1500)
}

// TestUDPFlowSteadyStateZeroAlloc asserts that a warm CBR flow sends and
// delivers each packet without allocating: packets come from the
// simulator's pool, the send callback is bound once, and delivery only
// updates running counters.
func TestUDPFlowSteadyStateZeroAlloc(t *testing.T) {
	l := newLab(40*units.Mbps, 4)
	rate, size := 5*units.Mbps, units.Bytes(1500)
	u := NewUDPFlow(l.s, 1, l.fwd, l.class, rate, size)
	u.Start()
	l.s.RunUntil(time.Second)
	gap := rate.TimeToSend(size)
	sent, arrived := u.Sent, u.Arrived
	const runs = 1000
	avg := testing.AllocsPerRun(runs, func() {
		l.s.RunUntil(l.s.Now() + gap) // one packet sent, one delivered
	})
	if avg != 0 {
		t.Errorf("steady CBR flow allocates %.2f allocs/packet, want 0", avg)
	}
	// AllocsPerRun makes one extra warm-up call.
	if u.Sent-sent != runs+1 || u.Arrived-arrived != runs+1 {
		t.Fatalf("sent %d and delivered %d packets over %d intervals, want one each per interval",
			u.Sent-sent, u.Arrived-arrived, runs+1)
	}
}
