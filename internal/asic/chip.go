package asic

// The cycle loop. Each cycle:
//
//  1. finished RCAs emit reply packets (backpressured by their router);
//  2. routers forward one flit per output link per virtual network,
//     dimension-ordered, with round-robin arbitration among inputs,
//     using two-phase evaluation so a flit moves at most one hop per
//     cycle;
//  3. destination tiles consume request flits (starting the RCA) and
//     the control plane consumes reply flits at tile (0,0);
//  4. the control plane injects pending jobs unless a thermal sensor
//     has tripped;
//  5. sensors integrate heat and cooling.

// move is a proposed one-hop transfer for the two-phase router update.
type move struct {
	fromTile int
	fromDir  direction
	vn       vnet
	toTile   int // -1 = consumed locally (RCA start or control plane)
	toDir    direction
}

// Step advances the chip one cycle.
func (c *Chip) Step() {
	cycle := c.stats.Cycle
	w, h := c.cfg.Width, c.cfg.Height

	// 1. RCA completions: the result becomes a reply flit in the local
	// input of the tile's own router.
	for i := range c.tiles {
		t := &c.tiles[i]
		if t.hasJob && t.busyUntil <= cycle {
			reply := t.current
			reply.Reply = true
			reply.SrcX, reply.SrcY = i%w, i/w
			reply.DstX, reply.DstY = 0, 0
			reply.Payload = rcaCompute(reply.Payload)
			if t.router.in[vnetReply][dirLocal].push(reply) {
				t.hasJob = false
				t.busyUntil = -1
			}
			// Otherwise the RCA stalls holding its result: natural
			// backpressure when the reply network is congested.
		}
	}

	// 2. Two-phase routing.
	var moves []move
	// scheduledIn counts flits already granted into each (tile, vnet,
	// dir) input this cycle, so capacity checks see the future state.
	type inKey struct {
		tile int
		vn   vnet
		dir  direction
	}
	scheduledIn := make(map[inKey]int)
	// outUsed enforces one flit per (tile, vnet, output) per cycle.
	type outKey struct {
		tile int
		vn   vnet
		dir  direction
	}
	outUsed := make(map[outKey]bool)

	for ti := range c.tiles {
		x, y := ti%w, ti/w
		t := &c.tiles[ti]
		for vn := vnet(0); vn < numVnets; vn++ {
			// Round-robin over input ports for fairness.
			start := t.router.rrNext[vn]
			for k := 0; k < int(numDirs); k++ {
				d := direction((start + k) % int(numDirs))
				q := &t.router.in[vn][d]
				if q.empty() {
					continue
				}
				p := q.peek()
				out := xyOut(x, y, p.DstX, p.DstY)
				if out == dirLocal {
					// Ejection: request → RCA, reply → control plane.
					if vn == vnetRequest {
						if t.hasJob {
							continue // RCA busy; flit waits
						}
						moves = append(moves, move{fromTile: ti, fromDir: d, vn: vn, toTile: -1})
						t.hasJob = true // reserve so one grant per cycle
						t.current = p
						t.busyUntil = cycle + int64(c.cfg.JobCycles)
					} else {
						moves = append(moves, move{fromTile: ti, fromDir: d, vn: vn, toTile: -1})
					}
					continue
				}
				ok := outKey{ti, vn, out}
				if outUsed[ok] {
					continue
				}
				// Neighbor index and its receiving port.
				var ni int
				var nd direction
				switch out {
				case dirEast:
					ni, nd = ti+1, dirWest
				case dirWest:
					ni, nd = ti-1, dirEast
				case dirSouth:
					ni, nd = ti+w, dirNorth
				default: // dirNorth
					ni, nd = ti-w, dirSouth
				}
				if ni < 0 || ni >= w*h {
					continue // packet addressed off-mesh: drop-proofed by Submit
				}
				ik := inKey{ni, vn, nd}
				nq := &c.tiles[ni].router.in[vn][nd]
				if len(nq.buf)+scheduledIn[ik] >= nq.cap {
					continue // no credit
				}
				scheduledIn[ik]++
				outUsed[ok] = true
				moves = append(moves, move{fromTile: ti, fromDir: d, vn: vn, toTile: ni, toDir: nd})
			}
			t.router.rrNext[vn] = (start + 1) % int(numDirs)
		}
	}

	// Commit phase: pops happen before pushes so a flit cannot traverse
	// two hops, because every move was planned against the pre-cycle
	// state.
	type popped struct {
		m move
		p Packet
	}
	pops := make([]popped, 0, len(moves))
	for _, m := range moves {
		q := &c.tiles[m.fromTile].router.in[m.vn][m.fromDir]
		pops = append(pops, popped{m: m, p: q.pop()})
	}
	for _, pp := range pops {
		switch {
		case pp.m.toTile >= 0:
			c.tiles[pp.m.toTile].router.in[pp.m.vn][pp.m.toDir].push(pp.p)
		case pp.m.vn == vnetReply:
			// Control plane collects the result.
			c.results = append(c.results, Result{
				JobID:   pp.p.JobID,
				Payload: pp.p.Payload,
				Latency: cycle - pp.p.Issued,
				TileX:   pp.p.SrcX,
				TileY:   pp.p.SrcY,
			})
			c.stats.Completed++
			c.stats.TotalLatency += cycle - pp.p.Issued
		default:
			// Request consumed by the RCA: already reserved above; the
			// destination coordinates ride along for accounting.
		}
	}

	// 3. Injection at the control plane, gated by the thermal loop.
	if c.throttleLatched && c.reopened() {
		c.throttleLatched = false
	}
	if c.throttled() {
		c.throttleLatched = true
	}
	if c.throttleLatched {
		c.stats.ThrottledCycles++
	} else if len(c.pending) > 0 {
		p := c.pending[0]
		p.Issued = cycle
		if c.tileAt(0, 0).router.in[vnetRequest][dirWest].push(p) {
			c.pending = c.pending[1:]
			c.stats.Injected++
		}
	}

	// 4. Thermal sensors.
	for i := range c.tiles {
		t := &c.tiles[i]
		if t.hasJob {
			t.tempC += c.cfg.HeatPerBusyCycle
			c.stats.BusyCycles++
		}
		t.tempC -= c.cfg.CoolPerCycle * (t.tempC - c.cfg.AmbientC)
		if t.tempC > c.stats.MaxTempC {
			c.stats.MaxTempC = t.tempC
		}
	}

	c.stats.Cycle++
}

// rcaCompute is the work an RCA tile performs on a job's payload — a
// stand-in mixing function with the avalanche character of the real
// kernels (the functional kernels themselves live in internal/apps).
func rcaCompute(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// RunUntilDrained steps until all injected work has completed or the
// cycle budget is exhausted; it reports whether the chip drained.
func (c *Chip) RunUntilDrained(maxCycles int) bool {
	for i := 0; i < maxCycles; i++ {
		if len(c.pending) == 0 && c.stats.Completed == c.stats.Injected && !c.anyInFlight() {
			return true
		}
		c.Step()
	}
	return len(c.pending) == 0 && c.stats.Completed == c.stats.Injected && !c.anyInFlight()
}

func (c *Chip) anyInFlight() bool {
	for i := range c.tiles {
		t := &c.tiles[i]
		if t.hasJob {
			return true
		}
		for vn := vnet(0); vn < numVnets; vn++ {
			for d := direction(0); d < numDirs; d++ {
				if !t.router.in[vn][d].empty() {
					return true
				}
			}
		}
	}
	return false
}
