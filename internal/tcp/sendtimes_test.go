package tcp

import (
	"math/rand"
	"testing"
	"time"
)

// TestSendTimesMatchesMap drives sendTimes and a map[int64]time.Duration
// model through random set/clear/get/advance sequences shaped like the
// connection's use: base tracks sndUna, sets land mostly in the window above
// it, and some land below base (fresh sends below sndUna after a go-back-N
// timeout), far above the highest set, or are cleared (retransmits); acks
// can land past every set or at or below base. Every get at or above base —
// the only reads the connection makes — must agree.
func TestSendTimesMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var w sendTimes
		m := map[int64]time.Duration{}
		var una, hi int64 // base, and one past the highest set
		now := time.Duration(0)
		check := func(op string, seq int64) {
			t.Helper()
			got, gotOK := w.get(seq)
			want, wantOK := m[seq]
			if gotOK != wantOK || got != want {
				t.Fatalf("trial %d after %s: get(%d) = (%v, %v), map (%v, %v) [base %d]",
					trial, op, seq, got, gotOK, want, wantOK, una)
			}
		}
		for step := 0; step < 2000; step++ {
			now += time.Duration(rng.Intn(3)) * time.Millisecond // 0 repeats a timestamp
			switch op := rng.Intn(10); {
			case op < 4: // send: mostly the next sequence, sometimes a jump
				seq := hi
				if rng.Intn(8) == 0 {
					seq += int64(rng.Intn(300))
				}
				w.set(seq, now)
				m[seq] = now
				if seq >= hi {
					hi = seq + 1
				}
			case op == 4: // resend inside the window or below base
				seq := una - 20 + int64(rng.Intn(int(hi-una)+40))
				w.set(seq, now)
				m[seq] = now
			case op == 5: // retransmit
				seq := una - 2 + int64(rng.Intn(int(hi-una)+4))
				w.clear(seq)
				delete(m, seq)
			case op < 9: // read anywhere at or above base, including past hi
				check("get", una+int64(rng.Intn(int(hi-una)+50)))
			default: // cumulative ack: sometimes past every set, sometimes stale
				ack := una + 1 + int64(rng.Intn(int(hi-una)+1))
				switch rng.Intn(10) {
				case 0:
					ack = hi + int64(rng.Intn(100))
				case 1:
					ack = una - int64(rng.Intn(3))
				}
				for s := una; s < ack; s++ {
					delete(m, s)
				}
				w.advance(ack)
				una = max(una, ack)
				hi = max(hi, una)
				for s := una; s < hi+10; s++ {
					check("advance", s)
				}
			}
		}
	}
}

// TestSendTimesSteadyStateZeroAlloc: a window sliding forward at a fixed
// size reuses its slice.
func TestSendTimesSteadyStateZeroAlloc(t *testing.T) {
	var w sendTimes
	var seq int64
	step := func() {
		w.set(seq, time.Duration(seq))
		seq++
		if seq > 40 {
			w.advance(seq - 40)
		}
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("sliding window allocates %.2f allocs/segment, want 0", avg)
	}
}
