package parm_test

import (
	"fmt"
	"log"

	"parm/internal/appmodel"
	"parm/internal/core"
	"parm/internal/power"
)

// Map a single application with the PARM framework and inspect what the
// runtime chose: supply voltage, degree of parallelism, and the resulting
// power supply noise.
func Example() {
	// The platform of the paper: 10x6 mesh at 7nm FinFET, 65 W dark
	// silicon power budget, Vdd levels 0.4-0.8 V.
	node := power.MustParams(power.Node7)

	// One fft instance arriving at t=0 with its profiled deadline.
	w, err := appmodel.Generate(appmodel.WorkloadConfig{
		Kind: appmodel.WorkloadComm, NumApps: 1, ArrivalGap: 0.1, Node: node, Seed: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	app := w.Apps[0]
	fmt.Printf("application: %s, deadline %.1f ms\n", app, app.RelDeadline*1e3)

	// Run it under PARM mapping + PANR routing.
	eng, err := core.NewEngine(core.Config{}, core.MustCombo("PARM", "PANR"))
	if err != nil {
		log.Fatal(err)
	}
	m, err := eng.Run(w)
	if err != nil {
		log.Fatal(err)
	}

	o := m.Apps[0]
	fmt.Printf("outcome:     %s\n", o.State)
	fmt.Printf("operating point: Vdd=%.1f V (f=%.2f GHz), DoP=%d threads\n",
		o.Vdd, node.Frequency(o.Vdd)/1e9, o.DoP)
	fmt.Printf("turnaround:  %.1f ms (deadline met: %v)\n",
		(o.CompletedAt-o.App.Arrival)*1e3, o.DeadlineMet)
	fmt.Printf("peak PSN:    %.2f%% of Vdd (voltage-emergency margin is 5%%)\n", m.PeakPSN*100)
	fmt.Printf("average PSN: %.2f%%\n", m.AvgPSN*100)
	fmt.Printf("voltage emergencies: %d\n", m.TotalVEs)
	fmt.Printf("mean NoC packet latency: %.1f cycles\n", m.MeanPacketLatency)
	// Output:
	// application: app0(fft), deadline 61.6 ms
	// outcome:     completed
	// operating point: Vdd=0.5 V (f=1.72 GHz), DoP=32 threads
	// turnaround:  45.7 ms (deadline met: true)
	// peak PSN:    4.71% of Vdd (voltage-emergency margin is 5%)
	// average PSN: 2.87%
	// voltage emergencies: 0
	// mean NoC packet latency: 12.5 cycles
}
