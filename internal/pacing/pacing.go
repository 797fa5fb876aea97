// Package pacing implements application-informed pacing, the paper's
// mechanism for letting an ABR algorithm set an upper bound on the server's
// packet-by-packet sending rate (§3.2).
//
// It provides three pieces: the PaceRate value that flows from the ABR
// algorithm to the transport, the HTTP header encoding used to carry it to a
// server (including the CMCD "rtp" form supported by CDNs), and a
// token-bucket Pacer that transports consult before each transmission.
package pacing

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/units"
)

// Header is the HTTP request header carrying the requested pace rate in bits
// per second, in the style of Fastly's client-socket-pace support.
const Header = "X-Sammy-Pace-Rate-Bps"

// CMCDHeader is the Common Media Client Data request header; its "rtp" key
// (requested throughput, in kilobits per second) is the standardized way to
// ask a CDN to limit server-side throughput.
const CMCDHeader = "CMCD-Request"

// NoPacing requests that the transport send as fast as congestion control
// allows, the behaviour of a conventional video session.
const NoPacing units.BitsPerSecond = 0

// SetHeader writes rate onto an outgoing request, in both the native and
// CMCD forms. A zero rate clears both headers (no pacing).
func SetHeader(h http.Header, rate units.BitsPerSecond) {
	if rate <= 0 {
		h.Del(Header)
		h.Del(CMCDHeader)
		return
	}
	h.Set(Header, strconv.FormatInt(int64(rate), 10))
	h.Set(CMCDHeader, fmt.Sprintf("rtp=%d", int64(rate/units.Kbps)))
}

// FromHeader extracts the requested pace rate from an incoming request,
// preferring the native header and falling back to the CMCD rtp key. It
// returns NoPacing when neither is present or parseable.
func FromHeader(h http.Header) units.BitsPerSecond {
	if v := h.Get(Header); v != "" {
		if bps, err := strconv.ParseInt(v, 10, 64); err == nil && bps > 0 {
			return units.BitsPerSecond(bps)
		}
	}
	if v := h.Get(CMCDHeader); v != "" {
		for _, part := range strings.Split(v, ",") {
			part = strings.TrimSpace(part)
			if rest, ok := strings.CutPrefix(part, "rtp="); ok {
				if kbps, err := strconv.ParseInt(rest, 10, 64); err == nil && kbps > 0 {
					return units.BitsPerSecond(kbps) * units.Kbps
				}
			}
		}
	}
	return NoPacing
}

// Pacer is a token-bucket rate limiter over a virtual clock. The transport
// asks when the next burst of bytes may be sent; the pacer answers with a
// delay. A zero-rate pacer always answers "now", so unpaced transports pay
// no cost.
//
// The bucket depth is the configured burst size, matching the paper's §5.6:
// pacing with a burst of b packets sends up to b packets back-to-back, then
// waits for tokens. Pacer is not safe for concurrent use; the real-conn
// wrapper in package cdn adds locking.
type Pacer struct {
	rate  units.BitsPerSecond
	burst units.Bytes // bucket depth in bytes

	tokens   float64       // current tokens, in bytes
	lastFill time.Duration // virtual time of the last refill

	// wakeCredit, when enabled, credits timer oversleep back into the
	// bucket (see EnableWakeCredit). wakeAt is the virtual time the caller
	// intended to wake at after the last positive Delay; zero means no
	// sleep is in flight.
	wakeCredit bool
	wakeAt     time.Duration
}

// NewPacer returns a pacer limiting throughput to rate with the given burst
// depth. A rate of NoPacing disables limiting. Burst must be positive when
// rate is set; it is conventionally burstPackets × MSS.
func NewPacer(rate units.BitsPerSecond, burst units.Bytes) *Pacer {
	if rate > 0 && burst <= 0 {
		panic("pacing: burst must be positive when pacing is enabled")
	}
	return &Pacer{rate: rate, burst: burst, tokens: float64(burst)}
}

// EnableWakeCredit makes the pacer credit timer oversleep back into the
// bucket. Real clocks and coarse timer wheels wake a sleeper *after* the
// requested delay; with a plain token bucket the tokens accrued during the
// overshoot are lost to the burst cap, so sustained throughput drifts below
// the requested rate by roughly oversleep/period. With wake credit, the
// first refill at or past the intended wake time stretches the cap by
// rate × oversleep, so exactly the bytes owed for the elapsed wall time are
// honoured and sustained throughput converges to the requested rate.
// Credited tokens stay in the bucket until spent: a later refill stops
// accrual at the burst but never takes back tokens already held, so a
// sender that wakes several burst periods late sends everything it is owed
// back to back rather than losing all but one burst of it. Every sleep
// starts from a deficit, so the bucket never holds more than the burst
// plus one oversleep's worth.
//
// The credit only ever covers scheduling latency of an in-flight Delay —
// idle time with no sleep pending accrues nothing beyond the burst — and it
// is off by default so virtual-clock simulations (where a transport may
// legitimately send later than the pace deadline) keep their exact
// historical behaviour.
func (p *Pacer) EnableWakeCredit() { p.wakeCredit = true }

// Rate reports the configured pace rate.
func (p *Pacer) Rate() units.BitsPerSecond { return p.rate }

// Burst reports the configured bucket depth in bytes.
func (p *Pacer) Burst() units.Bytes { return p.burst }

// SetRate changes the pace rate at virtual time now, preserving accumulated
// tokens up to the burst bound. This is how per-chunk pace-rate changes are
// applied mid-connection.
func (p *Pacer) SetRate(now time.Duration, rate units.BitsPerSecond, burst units.Bytes) {
	p.refill(now)
	p.rate = rate
	if burst > 0 {
		p.burst = burst
	}
	if p.tokens > float64(p.burst) {
		p.tokens = float64(p.burst)
	}
}

// Delay reports how long the caller must wait at virtual time now before
// sending n bytes, and reserves the tokens. A zero return means "send now".
// Callers must send exactly the reserved bytes after the returned delay (or
// call Refund).
func (p *Pacer) Delay(now time.Duration, n units.Bytes) time.Duration {
	if p.rate <= 0 {
		return 0
	}
	p.refill(now)
	p.tokens -= float64(n)
	if p.tokens >= 0 {
		return 0
	}
	// Deficit must be earned at the pace rate.
	deficit := -p.tokens
	d := time.Duration(deficit * 8 / float64(p.rate) * float64(time.Second))
	if p.wakeCredit {
		p.wakeAt = now + d
	}
	return d
}

// DeficitDelay reports how long the caller must wait at virtual time now for
// the bucket to return to zero, without reserving further tokens. It is how
// the engine re-keys a parked stream after a mid-flight rate change: the
// already-reserved bytes are re-priced at the new rate.
func (p *Pacer) DeficitDelay(now time.Duration) time.Duration {
	if p.rate <= 0 {
		return 0
	}
	p.refill(now)
	if p.tokens >= 0 {
		return 0
	}
	d := time.Duration(-p.tokens * 8 / float64(p.rate) * float64(time.Second))
	if p.wakeCredit {
		p.wakeAt = now + d
	}
	return d
}

// Refund returns n reserved bytes to the bucket, used when a planned
// transmission is abandoned.
func (p *Pacer) Refund(n units.Bytes) {
	if p.rate <= 0 {
		return
	}
	// The planned transmission (and its pending wake, if any) is abandoned.
	p.wakeAt = 0
	p.tokens += float64(n)
	if p.tokens > float64(p.burst) {
		p.tokens = float64(p.burst)
	}
}

// refill accrues tokens for the time elapsed since the last refill, up to
// the bucket cap. It never removes tokens: only wake credit can leave the
// bucket above the burst (see EnableWakeCredit), and those stay until spent.
func (p *Pacer) refill(now time.Duration) {
	if now <= p.lastFill {
		return
	}
	elapsed := now - p.lastFill
	p.lastFill = now
	if p.rate <= 0 {
		return
	}
	cap := float64(p.burst)
	if p.wakeCredit && p.wakeAt > 0 && now >= p.wakeAt {
		// The caller intended to send at wakeAt and the timer woke it late;
		// tokens accrued during the overshoot are scheduling latency, not
		// idle hoarding, so stretch the cap to keep them for this refill.
		cap += float64(p.rate) / 8 * (now - p.wakeAt).Seconds()
		p.wakeAt = 0
	}
	held := p.tokens
	p.tokens += float64(p.rate) / 8 * elapsed.Seconds()
	if p.tokens > cap {
		p.tokens = max(cap, held)
	}
}
