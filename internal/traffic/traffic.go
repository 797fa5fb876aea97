// Package traffic implements the neighbor workloads the paper's §6 lab
// experiments share a bottleneck with: a paced UDP constant-bit-rate flow
// measured for mean one-way delay (Fig 8a; a running sum, with no
// per-packet samples kept), a bulk TCP flow measured for throughput
// (Fig 8b), and repeated fixed-size HTTP requests measured for response
// time (Fig 8c). (The fourth neighbor, another video session, is just a
// second player.SimPlayer.)
package traffic

import (
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// UDPFlow sends constant-bit-rate UDP packets through a (shared) forward
// link and records the mean one-way delay of delivered packets as a running
// sum; it keeps no per-packet samples. Lost packets count separately. Once
// started, a flow allocates nothing per packet: packets come from the
// simulator's pool and the send callback is bound once.
type UDPFlow struct {
	s    *sim.Simulator
	fwd  sim.Sender
	flow sim.FlowID
	rate units.BitsPerSecond
	size units.Bytes

	seq      int64
	stopped  bool
	delaySum float64 // Σ delay in ms, for MeanDelay
	sendCb   func()  // pre-bound sendNext (no per-packet method-value alloc)

	Sent    int64
	Arrived int64
}

// NewUDPFlow builds a CBR flow of packetSize packets at rate through fwd,
// registering itself on fwdClass for flow. Call Start to begin sending.
func NewUDPFlow(s *sim.Simulator, flow sim.FlowID, fwd sim.Sender, fwdClass *sim.Classifier,
	rate units.BitsPerSecond, packetSize units.Bytes) *UDPFlow {
	if rate <= 0 || packetSize <= 0 {
		panic("traffic: UDP flow needs positive rate and packet size")
	}
	u := &UDPFlow{s: s, fwd: fwd, flow: flow, rate: rate, size: packetSize}
	u.sendCb = u.sendNext
	fwdClass.Register(flow, sim.HandlerFunc(u.receive))
	return u
}

// Start begins transmission; the flow sends until Stop or the simulation
// ends.
func (u *UDPFlow) Start() { u.sendNext() }

// Stop halts transmission after the next scheduled packet.
func (u *UDPFlow) Stop() { u.stopped = true }

// MeanDelay reports the mean one-way delay of delivered packets.
func (u *UDPFlow) MeanDelay() time.Duration {
	if u.Arrived == 0 {
		return 0
	}
	return time.Duration(u.delaySum / float64(u.Arrived) * float64(time.Millisecond))
}

// LossRate reports the fraction of sent packets that never arrived (only
// meaningful once in-flight packets have drained).
func (u *UDPFlow) LossRate() float64 {
	if u.Sent == 0 {
		return 0
	}
	return float64(u.Sent-u.Arrived) / float64(u.Sent)
}

func (u *UDPFlow) sendNext() {
	if u.stopped {
		return
	}
	p := u.s.AllocPacket()
	p.Flow, p.Seq, p.Size, p.SentAt = u.flow, u.seq, u.size, u.s.Now()
	u.seq++
	u.Sent++
	u.fwd.Send(p)
	u.s.Schedule(u.rate.TimeToSend(u.size), u.sendCb)
}

func (u *UDPFlow) receive(p *sim.Packet) {
	u.Arrived++
	d := u.s.Now() - p.SentAt
	u.delaySum += d.Seconds() * 1000
}
