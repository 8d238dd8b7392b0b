package asic

import (
	"errors"
	"fmt"
)

// Packet is a single-flit message on the on-ASIC network.
type Packet struct {
	JobID   uint64
	DstX    int
	DstY    int
	SrcX    int // tile that produced a reply
	SrcY    int
	Reply   bool // replies route back to the control plane
	Issued  int64
	Payload uint64
}

// direction indexes a router's output ports.
type direction int

const (
	dirLocal direction = iota
	dirEast
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// vnet separates request and reply traffic to break protocol deadlock.
type vnet int

const (
	vnetRequest vnet = iota
	vnetReply
	numVnets
)

// fifo is a bounded packet queue.
type fifo struct {
	buf []Packet
	cap int
}

func (q *fifo) full() bool  { return len(q.buf) >= q.cap }
func (q *fifo) empty() bool { return len(q.buf) == 0 }
func (q *fifo) push(p Packet) bool {
	if q.full() {
		return false
	}
	q.buf = append(q.buf, p)
	return true
}
func (q *fifo) peek() Packet { return q.buf[0] }
func (q *fifo) pop() Packet {
	p := q.buf[0]
	q.buf = q.buf[1:]
	return p
}

// router holds per-direction, per-vnet input buffers.
type router struct {
	in [numVnets][numDirs]fifo
	// rrNext implements round-robin arbitration fairness per output.
	rrNext [numVnets]int
}

// tile is one RCA plus its router.
type tile struct {
	router router
	// busyUntil is the cycle the current job finishes (-1 = idle).
	busyUntil int64
	current   Packet
	hasJob    bool
	// sensor state.
	tempC float64
}

// Config parameterizes the chip.
type Config struct {
	// Width and Height of the RCA mesh.
	Width, Height int
	// JobCycles is the RCA service time per job.
	JobCycles int
	// QueueDepth is the per-port router buffer depth in flits.
	QueueDepth int
	// Thermal sensor model: each busy cycle adds HeatPerBusyCycle °C,
	// and the tile relaxes toward AmbientC with the given rate.
	AmbientC         float64
	MaxTjC           float64
	HeatPerBusyCycle float64
	CoolPerCycle     float64 // fraction of (T - ambient) removed per cycle
	// ThrottleHysteresisC reopens injection this far below MaxTjC.
	ThrottleHysteresisC float64
}

// DefaultConfig is a 4×4 RCA array resembling a mid-size mining chip.
func DefaultConfig() Config {
	return Config{
		Width: 4, Height: 4,
		JobCycles:           64,
		QueueDepth:          4,
		AmbientC:            30,
		MaxTjC:              90,
		HeatPerBusyCycle:    0.02,
		CoolPerCycle:        0.0003,
		ThrottleHysteresisC: 5,
	}
}

// Validate reports whether the configuration is simulatable.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("asic: mesh %dx%d must be positive", c.Width, c.Height)
	case c.JobCycles <= 0:
		return errors.New("asic: job cycles must be positive")
	case c.QueueDepth <= 0:
		return errors.New("asic: queue depth must be positive")
	case c.MaxTjC <= c.AmbientC:
		return errors.New("asic: junction limit must exceed ambient")
	case c.HeatPerBusyCycle < 0 || c.CoolPerCycle < 0 || c.CoolPerCycle > 1:
		return errors.New("asic: invalid thermal coefficients")
	}
	return nil
}

// Result is a completed job as observed by the control plane.
type Result struct {
	JobID   uint64
	Payload uint64
	Latency int64 // cycles from injection to collection
	TileX   int
	TileY   int
}

// Stats summarizes a simulation.
type Stats struct {
	Cycle           int64
	Injected        int64
	Completed       int64
	ThrottledCycles int64
	MaxTempC        float64
	TotalLatency    int64
	BusyCycles      int64
}

// AvgLatency in cycles per completed job.
func (s Stats) AvgLatency() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Completed)
}

// Utilization is the fraction of RCA-cycles spent computing.
func (s Stats) Utilization(tiles int) float64 {
	if s.Cycle == 0 || tiles == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.Cycle) / float64(tiles)
}

// Chip is the simulated ASIC.
type Chip struct {
	cfg     Config
	tiles   []tile
	pending []Packet // jobs awaiting injection at the control plane
	results []Result
	stats   Stats
	nextRR  int // round-robin tile chooser for job placement
	// throttleLatched holds injection closed until every sensor falls
	// below the hysteresis band.
	throttleLatched bool
}

// New builds a chip.
func New(cfg Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Chip{cfg: cfg, tiles: make([]tile, cfg.Width*cfg.Height)}
	for i := range c.tiles {
		c.tiles[i].busyUntil = -1
		c.tiles[i].tempC = cfg.AmbientC
		for v := 0; v < int(numVnets); v++ {
			for d := 0; d < int(numDirs); d++ {
				c.tiles[i].router.in[v][d].cap = cfg.QueueDepth
			}
		}
	}
	return c, nil
}

func (c *Chip) tileAt(x, y int) *tile { return &c.tiles[y*c.cfg.Width+x] }

// Submit queues a job for injection; the control plane assigns tiles
// round-robin ("schedules computation and data onto the RCA's").
func (c *Chip) Submit(jobID, payload uint64) {
	x := c.nextRR % c.cfg.Width
	y := (c.nextRR / c.cfg.Width) % c.cfg.Height
	c.nextRR++
	c.pending = append(c.pending, Packet{
		JobID: jobID, DstX: x, DstY: y, Payload: payload,
	})
}

// Stats returns a snapshot of the accounting counters.
func (c *Chip) Stats() Stats { return c.stats }

func (c *Chip) throttled() bool {
	limit := c.cfg.MaxTjC
	for i := range c.tiles {
		if c.tiles[i].tempC >= limit {
			return true
		}
	}
	return false
}

// reopened reports whether all sensors have fallen below the hysteresis
// band, allowing injection to resume.
func (c *Chip) reopened() bool {
	limit := c.cfg.MaxTjC - c.cfg.ThrottleHysteresisC
	for i := range c.tiles {
		if c.tiles[i].tempC >= limit {
			return false
		}
	}
	return true
}

// xyOut returns the output direction for a packet at (x, y): X first,
// then Y — dimension-ordered routing is deadlock-free on a mesh.
func xyOut(x, y, dstX, dstY int) direction {
	switch {
	case dstX > x:
		return dirEast
	case dstX < x:
		return dirWest
	case dstY > y:
		return dirSouth
	case dstY < y:
		return dirNorth
	default:
		return dirLocal
	}
}
