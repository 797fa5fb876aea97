package main

import (
	"fmt"
	"io"
)

// ledger sets Σ(count × unit cost) per layer against the measured
// end-to-end time of the traced run. Work on the parallel lane is spread
// over the workers; serial work adds up as is. What the layers do not
// explain is the residual.
type ledger struct {
	workers int
	e2eS    float64 // measured end-to-end seconds of the traced run
	rows    []ledgerRow
}

type ledgerRow struct {
	layer    string
	count    float64
	busyS    float64 // count × unit cost, summed over workers
	parallel bool
}

func (l *ledger) add(layer string, count, busyS float64, parallel bool) {
	l.rows = append(l.rows, ledgerRow{layer, count, busyS, parallel})
}

// predictedS is the wall time the layers account for.
func (l *ledger) predictedS() float64 {
	var p float64
	for _, r := range l.rows {
		if r.parallel {
			p += r.busyS / float64(l.workers)
		} else {
			p += r.busyS
		}
	}
	return p
}

// residualFrac is (e2e − predicted) / e2e.
func (l *ledger) residualFrac() float64 {
	if l.e2eS <= 0 {
		return 0
	}
	return (l.e2eS - l.predictedS()) / l.e2eS
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger (%d workers): layer, count, unit cost, Σ count×cost, lane\n", l.workers)
	for _, r := range l.rows {
		unit := 0.0
		if r.count > 0 {
			unit = r.busyS / r.count
		}
		lane := "serial"
		if r.parallel {
			lane = "parallel"
		}
		fmt.Fprintf(w, "  %-22s %12.0f  %12.3fus  %9.4fs  %s\n", r.layer, r.count, unit*1e6, r.busyS, lane)
	}
	fmt.Fprintf(w, "  predicted wall %.4fs, measured %.4fs, residual %+.1f%%\n",
		l.predictedS(), l.e2eS, 100*l.residualFrac())
}
