// Quickstart: design a TCO-optimal ASIC Cloud server for the paper's
// Bitcoin accelerator in a dozen lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"asiccloud"
)

func main() {
	log.SetFlags(0)

	// 1. Start from an RCA spec — here the paper's published 28nm
	//    double-SHA256 core (0.66 mm², 0.83 GH/s and 2 W/mm² at 1 V).
	rca := asiccloud.BitcoinRCA()

	// 2. Sweep the joint design space: operating voltage, silicon per
	//    lane, and chips per lane, around the standard 1U 8-lane server.
	result, err := asiccloud.Explore(asiccloud.Sweep{
		Base: asiccloud.DefaultServer(rca),
	}, asiccloud.DefaultTCO())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Read off the three optimal servers the paper tabulates.
	fmt.Printf("explored %d feasible designs, %d on the Pareto frontier\n\n",
		result.Pruned.Feasible, len(result.Frontier))
	fmt.Println("energy-optimal:", result.EnergyOptimal.Describe())
	fmt.Println("cost-optimal:  ", result.CostOptimal.Describe())
	fmt.Println("TCO-optimal:   ", result.TCOOptimal.Describe())

	// 4. TCO analysis is what picks the single best point: the paper's
	//    central observation is that it beats both extremes.
	o := result.TCOOptimal
	fmt.Printf("\nTCO breakdown per %s over the 1.5-year server life:\n", rca.PerfUnit)
	fmt.Printf("  server amortization  $%.3f\n", o.TCO.ServerAmort)
	fmt.Printf("  amortized interest   $%.3f\n", o.TCO.AmortInterest)
	fmt.Printf("  datacenter CAPEX     $%.3f\n", o.TCO.DCCapex)
	fmt.Printf("  electricity          $%.3f\n", o.TCO.Electricity)
	fmt.Printf("  datacenter interest  $%.3f\n", o.TCO.DCInterest)
	fmt.Printf("  total                $%.3f per %s\n", o.TCO.Total(), rca.PerfUnit)
}
