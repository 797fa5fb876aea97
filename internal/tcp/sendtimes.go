package tcp

import "time"

// noSendTime marks a sequence number with no recorded send time. Simulated
// send times are never negative.
const noSendTime time.Duration = -1

// sendTimes holds the original send time of each in-flight segment for RTT
// sampling (Karn's algorithm: retransmitted segments have none). It is a
// window indexed by sequence number starting at base, which the connection
// keeps equal to sndUna. Every read the connection makes returns what a
// map[int64]time.Duration keyed by sequence number would:
//
//   - a set below base is dropped — every later read is at ack−1 with
//     ack > sndUna, so no read could observe it;
//   - advance(ack) forgets only the sequence numbers below ack, so an
//     original send time left above sndNxt by a go-back-N timeout is still
//     read when an ack for the original transmission arrives.
//
// The live window is buf[head:]; acked entries are dropped by moving head
// and reclaimed by compacting once they are at least half the slice, so a
// warm window allocates nothing.
type sendTimes struct {
	base int64           // sequence number of buf[head]
	head int             // index of base in buf
	buf  []time.Duration // buf[head+i] is the send time of base+i, or noSendTime
}

// set records t as the send time of seq.
func (w *sendTimes) set(seq int64, t time.Duration) {
	i := seq - w.base
	if i < 0 {
		return
	}
	for int64(len(w.buf)-w.head) <= i {
		if len(w.buf) == cap(w.buf) && w.head > 0 && w.head >= len(w.buf)/2 {
			n := copy(w.buf, w.buf[w.head:])
			w.buf, w.head = w.buf[:n], 0
		}
		w.buf = append(w.buf, noSendTime)
	}
	w.buf[w.head+int(i)] = t
}

// clear forgets the send time of seq.
func (w *sendTimes) clear(seq int64) {
	if i := seq - w.base; i >= 0 && i < int64(len(w.buf)-w.head) {
		w.buf[w.head+int(i)] = noSendTime
	}
}

// get returns the send time of seq and whether one is recorded.
func (w *sendTimes) get(seq int64) (time.Duration, bool) {
	i := seq - w.base
	if i < 0 || i >= int64(len(w.buf)-w.head) {
		return 0, false
	}
	if t := w.buf[w.head+int(i)]; t != noSendTime {
		return t, true
	}
	return 0, false
}

// advance forgets every sequence number below ack and moves base to ack.
// It is a no-op when ack ≤ base.
func (w *sendTimes) advance(ack int64) {
	n := ack - w.base
	if n <= 0 {
		return
	}
	w.base = ack
	if n >= int64(len(w.buf)-w.head) {
		w.buf, w.head = w.buf[:0], 0
		return
	}
	w.head += int(n)
}
