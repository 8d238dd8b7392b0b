// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the functional kernels underneath them. Run with
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigN / BenchmarkTableN measures the full cost of
// recomputing that artifact from scratch (no caching), so the reported
// ns/op is the wall time to reproduce the experiment.
package asiccloud

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"asiccloud/internal/apps/bitcoin"
	"asiccloud/internal/apps/cnn"
	"asiccloud/internal/apps/litecoin"
	"asiccloud/internal/apps/xcode"
	"asiccloud/internal/asic"
	"asiccloud/internal/baseline"
	"asiccloud/internal/cloud"
	"asiccloud/internal/core"
	"asiccloud/internal/nre"
	"asiccloud/internal/server"
	"asiccloud/internal/service"
	"asiccloud/internal/studies"
	"asiccloud/internal/tco"
	"asiccloud/internal/thermal"
	"asiccloud/internal/vlsi"
)

// --- Figure 1: Bitcoin network difficulty ramp -------------------------

func BenchmarkFig1NetworkRamp(b *testing.B) {
	gens := bitcoin.HistoricalGenerations()
	p := bitcoin.DefaultNetworkParams()
	for i := 0; i < b.N; i++ {
		samples, err := bitcoin.SimulateNetwork(gens, p, 6.9)
		if err != nil {
			b.Fatal(err)
		}
		if samples[len(samples)-1].Difficulty < 1e10 {
			b.Fatal("difficulty ramp failed")
		}
	}
}

// --- Figure 5: delay-voltage curve -------------------------------------

func BenchmarkFig5DelayVoltage(b *testing.B) {
	c := vlsi.Default28nm()
	var sink float64
	for i := 0; i < b.N; i++ {
		for v := 0.40; v <= 1.0; v += 0.001 {
			sink += c.Delay(v)
		}
	}
	_ = sink
}

// --- Figure 6: heat sink performance vs die area -----------------------

func BenchmarkFig6HeatsinkVsDieArea(b *testing.B) {
	fan := thermal.Default1UFan()
	opt := thermal.DefaultOptimizeOptions()
	areas := []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	for i := 0; i < b.N; i++ {
		for _, a := range areas {
			if _, ok := thermal.OptimizeSink(fan, 1, a, opt); !ok {
				b.Fatal("no sink")
			}
		}
	}
}

// --- Figure 8: PCB layout comparison ------------------------------------

func BenchmarkFig8PCBLayouts(b *testing.B) {
	fan := thermal.Default1UFan()
	for i := 0; i < b.N; i++ {
		for _, layout := range []thermal.Layout{thermal.LayoutNormal, thermal.LayoutStaggered, thermal.LayoutDuct} {
			opt := thermal.DefaultOptimizeOptions()
			opt.Layout = layout
			if _, ok := thermal.OptimizeSink(fan, 4, 100, opt); !ok {
				b.Fatal("layout failed")
			}
		}
	}
}

// --- Figure 9: power per lane vs chips per lane -------------------------

func BenchmarkFig9PowerPerLane(b *testing.B) {
	fan := thermal.Default1UFan()
	opt := thermal.DefaultOptimizeOptions()
	for i := 0; i < b.N; i++ {
		for _, total := range []float64{50, 130, 330, 850, 2200} {
			for _, n := range []int{5, 10, 15, 20} {
				thermal.OptimizeSink(fan, n, total/float64(n), opt)
			}
		}
	}
}

// bitcoinSweep is the full Figure 10-13 exploration.
func bitcoinSweep() core.Sweep {
	return core.Sweep{Base: server.Default(bitcoin.RCA())}
}

// --- Figures 10-12 and Table 3: the Bitcoin design space ---------------

func BenchmarkFig10CostVsDensity(b *testing.B) {
	benchBitcoinExplore(b)
}

func BenchmarkFig11BitcoinVoltage(b *testing.B) {
	benchBitcoinExplore(b)
}

func BenchmarkFig12BitcoinPareto(b *testing.B) {
	benchBitcoinExplore(b)
}

func BenchmarkTable3BitcoinOptimal(b *testing.B) {
	benchBitcoinExplore(b)
}

func benchBitcoinExplore(b *testing.B) {
	b.Helper()
	model := tco.Default()
	for i := 0; i < b.N; i++ {
		res, err := core.Explore(bitcoinSweep(), model)
		if err != nil {
			b.Fatal(err)
		}
		if res.TCOOptimal.Config.Voltage < 0.44 || res.TCOOptimal.Config.Voltage > 0.54 {
			b.Fatalf("TCO-optimal voltage %v drifted from the paper's ~0.49",
				res.TCOOptimal.Config.Voltage)
		}
	}
}

// BenchmarkRepeatedSweep measures the engine's thermal-plan cache on
// back-to-back full Bitcoin sweeps: the same geometries re-explored on
// one engine, as the studies and figures do under different economic
// models.
// "cold" builds a fresh engine every iteration (every plan re-optimized);
// "warm" shares a primed engine, so heat-sink optimization is entirely
// cache hits. Both run keep mode, with its row copies and gather.
// "warm-stream" is "warm" with DiscardPoints set: the path the daemon,
// the pool workers, the studies and the figures run. Every sweep's TCO
// optimum must equal the keep-mode reference's.
func BenchmarkRepeatedSweep(b *testing.B) {
	model := tco.Default()
	ref, err := core.NewEngine(nil).Explore(bitcoinSweep(), model)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.NewEngine(nil).Explore(bitcoinSweep(), model)
			if err != nil {
				b.Fatal(err)
			}
			if res.TCOOptimal != ref.TCOOptimal {
				b.Fatal("cold sweep result drifted")
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		eng := core.NewEngine(nil)
		if _, err := eng.Explore(bitcoinSweep(), model); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Explore(bitcoinSweep(), model)
			if err != nil {
				b.Fatal(err)
			}
			if res.TCOOptimal != ref.TCOOptimal {
				b.Fatal("warm-cache sweep result drifted")
			}
		}
		if st := eng.CacheStats(); st.Hits == 0 {
			b.Fatalf("warm sweeps never hit the plan cache: %+v", st)
		}
	})

	b.Run("warm-stream", func(b *testing.B) {
		eng := core.NewEngine(nil)
		eng.DiscardPoints = true
		if _, err := eng.Explore(bitcoinSweep(), model); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Explore(bitcoinSweep(), model)
			if err != nil {
				b.Fatal(err)
			}
			if res.TCOOptimal != ref.TCOOptimal {
				b.Fatal("warm streaming sweep result drifted")
			}
		}
	})
}

// --- §7 voltage stacking -------------------------------------------------

func BenchmarkVoltageStacking(b *testing.B) {
	model := tco.Default()
	sweep := bitcoinSweep()
	sweep.Stacked = true
	for i := 0; i < b.N; i++ {
		res, err := core.Explore(sweep, model)
		if err != nil {
			b.Fatal(err)
		}
		if !res.TCOOptimal.Config.Stacked {
			b.Fatal("stacking should win TCO")
		}
	}
}

// --- Figure 14 and Table 4: Litecoin ------------------------------------

func BenchmarkTable4LitecoinOptimal(b *testing.B) {
	model := tco.Default()
	for i := 0; i < b.N; i++ {
		res, err := core.Explore(core.Sweep{Base: server.Default(litecoin.RCA())}, model)
		if err != nil {
			b.Fatal(err)
		}
		// Litecoin's SRAM rail pushes optimal voltages far above
		// Bitcoin's (paper: 0.70 V TCO-optimal).
		if res.TCOOptimal.Config.Voltage < 0.60 {
			b.Fatalf("Litecoin TCO-optimal voltage %v too low", res.TCOOptimal.Config.Voltage)
		}
	}
}

// --- Figures 15-16 and Table 5: video transcoding ------------------------

func BenchmarkTable5XcodeOptimal(b *testing.B) {
	model := tco.Default()
	base, err := xcode.ServerConfig(1)
	if err != nil {
		b.Fatal(err)
	}
	sweep := core.Sweep{Base: base, DRAMPerASIC: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	for i := 0; i < b.N; i++ {
		res, err := core.Explore(sweep, model)
		if err != nil {
			b.Fatal(err)
		}
		if res.TCOOptimal.Config.DRAM.PerASIC == 0 {
			b.Fatal("xcode designs must carry DRAM")
		}
	}
}

// --- Figure 17 and Table 6: CNN ------------------------------------------

func BenchmarkTable6CNNOptimal(b *testing.B) {
	model := tco.Default()
	for i := 0; i < b.N; i++ {
		evals, err := cnn.Explore(model)
		if err != nil {
			b.Fatal(err)
		}
		_, _, tcoOpt := cnn.Optima(evals)
		if (tcoOpt.Shape != cnn.ChipShape{A: 4, B: 2}) {
			b.Fatalf("TCO-optimal CNN chip %v, want (4,2)", tcoOpt.Shape)
		}
	}
}

// --- Table 7: the cloud deathmatch ----------------------------------------

func BenchmarkTable7Deathmatch(b *testing.B) {
	model := tco.Default()
	res, err := core.Explore(bitcoinSweep(), model)
	if err != nil {
		b.Fatal(err)
	}
	asicTCO := res.TCOOptimal.TCOPerOp()
	cpu := baseline.Table7()[0] // Bitcoin on CPUs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := baseline.Deathmatch(cpu, asicTCO)
		if err != nil {
			b.Fatal(err)
		}
		if m.Advantage < 1000 {
			b.Fatal("ASIC advantage should be thousands of times")
		}
	}
}

// --- Figure 18: breakeven -------------------------------------------------

func BenchmarkFig18Breakeven(b *testing.B) {
	ratios := []float64{1.1, 1.5, 2, 3, 4, 5, 6, 8, 10}
	for i := 0; i < b.N; i++ {
		if _, err := nre.BreakevenCurve(ratios); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Functional kernels: the silicon's software twins ---------------------

// BenchmarkSHA256d measures this machine's double-SHA256 rate — the
// "CPU generation" baseline of Figure 1, in hashes per second.
func BenchmarkSHA256d(b *testing.B) {
	h := bitcoin.Header{Version: 1, Time: 1231006505, Bits: 0x1d00ffff}
	mid := h.Midstate()
	b.SetBytes(80)
	for i := 0; i < b.N; i++ {
		h.HashWithMidstate(mid, uint32(i))
	}
}

// BenchmarkScrypt measures Litecoin proof-of-work hashes (N=1024, r=1).
func BenchmarkScrypt(b *testing.B) {
	header := make([]byte, 80)
	for i := range header {
		header[i] = byte(i)
	}
	for i := 0; i < b.N; i++ {
		header[0] = byte(i)
		if _, err := litecoin.PoWHash(header); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranscodeBlock measures the 8×8 transcode pipeline.
func BenchmarkTranscodeBlock(b *testing.B) {
	ref, _ := xcode.NewFrame(64, 64)
	cur, _ := xcode.NewFrame(64, 64)
	for i := range ref.Pix {
		ref.Pix[i] = uint8(i * 7)
		cur.Pix[i] = uint8(i*7 + 3)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := xcode.TranscodeBlock(cur, ref, 16, 16, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCNNInference measures one reference-network inference and
// BenchmarkCNNPartitioned64 the same inference sharded across 64 mesh
// nodes (DaDianNao's model parallelism).
func BenchmarkCNNInference(b *testing.B) {
	net, err := cnn.ReferenceNetwork()
	if err != nil {
		b.Fatal(err)
	}
	in, _ := cnn.NewTensor(3, 32, 32)
	for i := range in.Data {
		in.Data[i] = float32(i%17) / 17
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Forward(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCNNPartitioned64(b *testing.B) {
	net, err := cnn.ReferenceNetwork()
	if err != nil {
		b.Fatal(err)
	}
	in, _ := cnn.NewTensor(3, 32, 32)
	for i := range in.Data {
		in.Data[i] = float32(i%17) / 17
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cnn.PartitionedForward(net, in, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerEvaluate measures one pass of the Figure 4 flow — the
// inner loop of the brute-force search.
func BenchmarkServerEvaluate(b *testing.B) {
	cfg := server.Default(bitcoin.RCA())
	cfg.Voltage = 0.48
	cfg.ChipsPerLane = 20
	cfg.RCAsPerChip = 227
	plan, err := server.ThermalPlan(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.EvaluateWithPlan(cfg, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolThroughput measures the scale-out layer: jobs pushed
// through the TCP pool server and four workers.
func BenchmarkPoolThroughput(b *testing.B) {
	jobs := make([]cloud.Job, b.N)
	for i := range jobs {
		p := make([]byte, 8)
		binary.LittleEndian.PutUint64(p, uint64(i))
		jobs[i] = cloud.Job{ID: uint64(i + 1), Payload: p}
	}
	pool := cloud.NewPool(jobs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go pool.Serve(ctx, l)

	handler := func(j cloud.Job) ([]byte, error) { return j.Payload, nil }
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cloud.RunWorker(ctx, l.Addr().String(), fmt.Sprintf("w%d", id), handler)
		}(w)
	}
	wg.Wait()
	if got := pool.Stats().JobsDone; got != b.N {
		b.Fatalf("completed %d of %d jobs", got, b.N)
	}
}

// --- Ablation and sensitivity studies (DESIGN.md design choices) ----------

// BenchmarkAblationLayouts measures the end-to-end cloud-level layout
// study (Normal vs Staggered vs DUCT).
func BenchmarkAblationLayouts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := studies.LayoutStudy()
		if err != nil {
			b.Fatal(err)
		}
		if pts[2].TCOPerOp > pts[0].TCOPerOp {
			b.Fatal("DUCT should beat Normal")
		}
	}
}

// BenchmarkAblationCooling compares forced air against immersion.
func BenchmarkAblationCooling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := studies.CoolingStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEnergyPrice sweeps the electricity price (the
// paper's Iceland/Georgia siting argument).
func BenchmarkAblationEnergyPrice(b *testing.B) {
	prices := []float64{0.02, 0.06, 0.15}
	for i := 0; i < b.N; i++ {
		pts, err := studies.EnergyPriceStudy(prices)
		if err != nil {
			b.Fatal(err)
		}
		if pts[2].OptimalVoltage > pts[0].OptimalVoltage {
			b.Fatal("expensive energy should lower the optimal voltage")
		}
	}
}

// BenchmarkAblationNode compares 28nm vs 40nm including NRE (§12).
func BenchmarkAblationNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := studies.NodeStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- On-ASIC architecture (Figure 2) ---------------------------------------

// BenchmarkChipNoC measures the cycle-level on-ASIC simulator pushing
// jobs through a 4x4 RCA mesh.
func BenchmarkChipNoC(b *testing.B) {
	cfg := asic.DefaultConfig()
	cfg.HeatPerBusyCycle = 0
	for i := 0; i < b.N; i++ {
		chip, err := asic.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 256; j++ {
			chip.Submit(uint64(j+1), uint64(j))
		}
		if !chip.RunUntilDrained(1_000_000) {
			b.Fatal("chip did not drain")
		}
	}
}

// BenchmarkScryptMine measures the Litecoin mining loop (scrypt per
// nonce attempt, no midstate shortcut possible).
func BenchmarkScryptMine(b *testing.B) {
	h := litecoin.Header{Version: 2, Time: 1317972665, Bits: 0x1d00ffff}
	for i := 0; i < b.N; i++ {
		if _, _, err := litecoin.Mine(&h, uint32(i), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvNaive measures the direct convolution.
func BenchmarkConvNaive(b *testing.B) {
	c, err := cnn.NewConv(16, 32, 3, 1, 5)
	if err != nil {
		b.Fatal(err)
	}
	in, _ := cnn.NewTensor(16, 32, 32)
	for i := range in.Data {
		in.Data[i] = float32(i%13) / 13
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Forward(in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- asiccloudd: service-level result cache ------------------------------

// serviceRoundTrip submits one sweep over HTTP and returns the result
// body, polling the job to completion when it is not a cache hit.
func serviceRoundTrip(b *testing.B, baseURL, body string) []byte {
	b.Helper()
	resp, err := http.Post(baseURL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var st service.StatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	for st.State != service.StateDone {
		if st.State == service.StateFailed || st.State == service.StateCanceled {
			b.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
		time.Sleep(200 * time.Microsecond)
		r, err := http.Get(baseURL + "/v1/sweeps/" + st.ID)
		if err != nil {
			b.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
	}
	r, err := http.Get(baseURL + "/v1/sweeps/" + st.ID + "/result")
	if err != nil {
		b.Fatal(err)
	}
	defer r.Body.Close()
	out, err := io.ReadAll(r.Body)
	if err != nil || r.StatusCode != http.StatusOK {
		b.Fatalf("result: %d %v", r.StatusCode, err)
	}
	return out
}

// BenchmarkServiceSweep measures asiccloudd end to end over HTTP on the
// paper's full Bitcoin sweep. "cold" starts a fresh daemon per
// iteration, so every submission runs on the engine; "cached" reuses one
// daemon whose result cache is primed, so every submission is answered
// from the LRU. The cold/cached ratio is the result cache's speedup;
// the repo benchmark's daemon-study workload times engine runs and
// cache hits over HTTP as wall.sweep_s_p50 and wall.hit_s_p50.
func BenchmarkServiceSweep(b *testing.B) {
	const body = `{"app":"bitcoin"}`
	shutdown := func(s *service.Server, ts *httptest.Server) {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	}
	var ref []byte

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := service.New(service.Config{Workers: 1}, nil)
			ts := httptest.NewServer(s.Handler())
			out := serviceRoundTrip(b, ts.URL, body)
			shutdown(s, ts)
			if ref == nil {
				ref = out
			} else if !bytes.Equal(ref, out) {
				b.Fatal("cold service results drifted across daemons")
			}
		}
	})

	b.Run("cached", func(b *testing.B) {
		s := service.New(service.Config{Workers: 1}, nil)
		ts := httptest.NewServer(s.Handler())
		defer shutdown(s, ts)
		warm := serviceRoundTrip(b, ts.URL, body) // prime the result cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := serviceRoundTrip(b, ts.URL, body)
			if !bytes.Equal(warm, out) {
				b.Fatal("cache hit served different bytes")
			}
		}
		if ref != nil && !bytes.Equal(ref, warm) {
			b.Fatal("cached result differs from the cold daemons' result")
		}
	})
}
