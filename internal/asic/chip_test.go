package asic

import (
	"testing"
	"testing/quick"
)

func coolConfig() Config {
	cfg := DefaultConfig()
	cfg.HeatPerBusyCycle = 0 // disable thermal effects unless testing them
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.Height = -1 },
		func(c *Config) { c.JobCycles = 0 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.MaxTjC = c.AmbientC },
		func(c *Config) { c.CoolPerCycle = 2 },
		func(c *Config) { c.HeatPerBusyCycle = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d not rejected", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
}

func TestAllJobsCompleteExactlyOnce(t *testing.T) {
	chip, err := New(coolConfig())
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 200
	for i := 0; i < jobs; i++ {
		chip.Submit(uint64(i+1), uint64(i))
	}
	if !chip.RunUntilDrained(1_000_000) {
		t.Fatalf("chip did not drain: %+v, pending %d", chip.Stats(), len(chip.pending))
	}
	s := chip.Stats()
	if s.Injected != jobs || s.Completed != jobs {
		t.Fatalf("injected %d / completed %d, want %d", s.Injected, s.Completed, jobs)
	}
	seen := map[uint64]bool{}
	for _, r := range chip.results {
		if seen[r.JobID] {
			t.Fatalf("job %d completed twice", r.JobID)
		}
		seen[r.JobID] = true
		if r.Payload != rcaCompute(r.JobID-1) {
			t.Fatalf("job %d payload corrupted in flight", r.JobID)
		}
	}
	if len(seen) != jobs {
		t.Fatalf("collected %d unique results, want %d", len(seen), jobs)
	}
}

func TestLatencyRespectsPhysics(t *testing.T) {
	cfg := coolConfig()
	chip, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A single job to the far corner: latency must cover the Manhattan
	// distance there, the service time, and the trip back.
	chip.nextRR = cfg.Width*cfg.Height - 1 // place on the last tile (3,3)
	chip.Submit(1, 0)
	if !chip.RunUntilDrained(100_000) {
		t.Fatal("did not drain")
	}
	rs := chip.results
	if len(rs) != 1 {
		t.Fatalf("got %d results", len(rs))
	}
	minLatency := int64((cfg.Width - 1) + (cfg.Height - 1) + cfg.JobCycles)
	if rs[0].Latency < minLatency {
		t.Errorf("latency %d below physical floor %d", rs[0].Latency, minLatency)
	}
	if rs[0].TileX != cfg.Width-1 || rs[0].TileY != cfg.Height-1 {
		t.Errorf("job landed on (%d,%d), want the far corner", rs[0].TileX, rs[0].TileY)
	}
}

func TestRoundRobinPlacementBalances(t *testing.T) {
	cfg := coolConfig()
	chip, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := cfg.Width * cfg.Height * 3
	for i := 0; i < jobs; i++ {
		chip.Submit(uint64(i+1), 0)
	}
	if !chip.RunUntilDrained(1_000_000) {
		t.Fatal("did not drain")
	}
	perTile := map[[2]int]int{}
	for _, r := range chip.results {
		perTile[[2]int{r.TileX, r.TileY}]++
	}
	if len(perTile) != cfg.Width*cfg.Height {
		t.Fatalf("only %d tiles received work", len(perTile))
	}
	for tile, n := range perTile {
		if n != 3 {
			t.Errorf("tile %v did %d jobs, want 3", tile, n)
		}
	}
}

func TestUtilizationUnderLoad(t *testing.T) {
	cfg := coolConfig()
	chip, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Saturating load: keep the mesh fed for the whole measurement
	// window (2000 jobs at ~0.25 jobs/cycle outlast 6000 cycles).
	for i := 0; i < 2000; i++ {
		chip.Submit(uint64(i+1), 0)
	}
	for i := 0; i < 6_000; i++ {
		chip.Step()
	}
	s := chip.Stats()
	// One injection port feeds 16 tiles with 64-cycle jobs: the port
	// supplies one job per cycle, so tiles should be mostly busy.
	if u := s.Utilization(cfg.Width * cfg.Height); u < 0.5 {
		t.Errorf("utilization %v under saturating load, want > 0.5", u)
	}
	if s.Completed == 0 {
		t.Error("no completions under load")
	}
}

func TestDeadlockFreedomRandomLoads(t *testing.T) {
	// Property: any job count on any small mesh drains — XY routing
	// with separate request/reply networks cannot deadlock.
	f := func(seed uint16) bool {
		cfg := coolConfig()
		cfg.Width = 2 + int(seed%3)
		cfg.Height = 2 + int(seed/3%3)
		cfg.QueueDepth = 1 + int(seed%2)
		cfg.JobCycles = 1 + int(seed%7)
		chip, err := New(cfg)
		if err != nil {
			return false
		}
		jobs := 50 + int(seed%200)
		for i := 0; i < jobs; i++ {
			chip.Submit(uint64(i+1), uint64(seed))
		}
		return chip.RunUntilDrained(2_000_000) && chip.Stats().Completed == int64(jobs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestThermalThrottling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeatPerBusyCycle = 0.5 // aggressive heating to force a trip
	cfg.CoolPerCycle = 0.002
	chip, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		chip.Submit(uint64(i+1), 0)
	}
	for i := 0; i < 60_000; i++ {
		chip.Step()
	}
	s := chip.Stats()
	if s.ThrottledCycles == 0 {
		t.Fatal("expected the thermal control loop to throttle injection")
	}
	// The sensor limit bounds how far temperature overshoots: once
	// tripped, no new work enters, so the excursion stays near the
	// limit plus the in-flight jobs' heat.
	if s.MaxTempC > cfg.MaxTjC+cfg.HeatPerBusyCycle*float64(cfg.JobCycles)*2 {
		t.Errorf("max temp %v far above the sensor limit %v", s.MaxTempC, cfg.MaxTjC)
	}
	if !chip.throttled() && !chip.reopened() {
		t.Error("inconsistent throttle state")
	}
}

func TestThrottlingRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeatPerBusyCycle = 0.5
	cfg.CoolPerCycle = 0.01
	chip, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		chip.Submit(uint64(i+1), 0)
	}
	// With strong cooling, the duty-cycled chip must still finish.
	if !chip.RunUntilDrained(5_000_000) {
		t.Fatalf("throttled chip never drained: %+v", chip.Stats())
	}
	if got := chip.Stats().Completed; got != 500 {
		t.Errorf("completed %d, want 500", got)
	}
}

func TestStatsAccessors(t *testing.T) {
	var s Stats
	if s.AvgLatency() != 0 {
		t.Error("empty stats latency should be 0")
	}
	if s.Utilization(4) != 0 {
		t.Error("empty stats utilization should be 0")
	}
	s = Stats{Completed: 2, TotalLatency: 100, Cycle: 50, BusyCycles: 100}
	if s.AvgLatency() != 50 {
		t.Errorf("avg latency = %v, want 50", s.AvgLatency())
	}
	if s.Utilization(4) != 0.5 {
		t.Errorf("utilization = %v, want 0.5", s.Utilization(4))
	}
}

func TestXYRouting(t *testing.T) {
	cases := []struct {
		x, y, dx, dy int
		want         direction
	}{
		{0, 0, 0, 0, dirLocal},
		{0, 0, 2, 0, dirEast},
		{2, 0, 0, 0, dirWest},
		{1, 1, 1, 3, dirSouth},
		{1, 3, 1, 1, dirNorth},
		{0, 2, 3, 0, dirEast}, // X resolves before Y
	}
	for _, c := range cases {
		if got := xyOut(c.x, c.y, c.dx, c.dy); got != c.want {
			t.Errorf("xyOut(%d,%d → %d,%d) = %v, want %v", c.x, c.y, c.dx, c.dy, got, c.want)
		}
	}
}
