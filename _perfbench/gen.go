package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"asiccloud/internal/service"
)

// The daemon-study traffic model. It is modelled on internal/studies,
// not observed from real traffic: study clients hold one geometry (the
// full Table 3 and Table 4 design spaces) and re-price it under many
// economic and emission models, the axes EnergyPriceStudy,
// LifetimeStudy and CarbonCrossoverStudy vary. A client sometimes asks
// again a question it asked earlier in its session; those verbatim
// repeats are the result-cache hits.
var (
	studyPrices     = []float64{0.02, 0.04, 0.06, 0.10, 0.15} // $ per kWh
	studyLifetimes  = []float64{1, 1.5, 2, 3}                 // years
	studyIntensity  = []float64{20, 100, 250, 475}            // g CO2e per kWh
	studyObjectives = []string{"tco", "carbon"}
)

// studyApps fixes how many distinct requests of a session each app
// gets. The two apps' sweeps take different times, so a drawn mix
// would move the latency median from seed to seed; a fixed mix with
// a clear majority keeps it inside one app's distribution.
var studyApps = []struct {
	name     string
	distinct int
}{{"bitcoin", 24}, {"litecoin", 8}}

const (
	studyClients = 2
	// studyDistinct requests per session stay under the daemon's
	// 128-entry result cache, so no entry is evicted and every repeat
	// is a hit: the seed alone fixes the hit share.
	studyDistinct = 32
	// studyRepeats per client: a third of all requests repeat.
	studyRepeats = 8
)

// session is one seeded daemon-study session: the distinct requests
// and, per client, the order it sends them in (indices into Distinct).
// Each client sends the same number of each app's requests. A repeat
// names a request the same client sent earlier, so it always arrives
// after the first copy finished and is a cache hit.
type session struct {
	Distinct []service.Request
	Bodies   [][]byte
	Clients  [studyClients][]int
}

func (s session) requests() int {
	n := 0
	for _, c := range s.Clients {
		n += len(c)
	}
	return n
}

// newSession draws a session from the seed; the same seed always
// yields the same session.
func newSession(seed int64) (session, error) {
	rng := rand.New(rand.NewSource(seed))
	space := len(studyPrices) * len(studyLifetimes) * len(studyIntensity) * len(studyObjectives)
	var s session
	var own [studyClients][]int
	for _, app := range studyApps {
		for i, k := range rng.Perm(space)[:app.distinct] {
			req := studyRequest(app.name, k)
			body, err := json.Marshal(req)
			if err != nil {
				return session{}, fmt.Errorf("marshal study request: %w", err)
			}
			c := i % studyClients
			own[c] = append(own[c], len(s.Distinct))
			s.Distinct = append(s.Distinct, req)
			s.Bodies = append(s.Bodies, body)
		}
	}
	for c := range s.Clients {
		rng.Shuffle(len(own[c]), func(i, j int) { own[c][i], own[c][j] = own[c][j], own[c][i] })
		n := len(own[c]) + studyRepeats
		// Choose which positions repeat; position 0 never does, so
		// every repeat has an earlier request to copy.
		repeatAt := make(map[int]bool, studyRepeats)
		for _, p := range rng.Perm(n - 1)[:studyRepeats] {
			repeatAt[p+1] = true
		}
		next := 0
		for pos := 0; pos < n; pos++ {
			if repeatAt[pos] {
				s.Clients[c] = append(s.Clients[c], own[c][rng.Intn(next)])
				continue
			}
			s.Clients[c] = append(s.Clients[c], own[c][next])
			next++
		}
	}
	return s, nil
}

// studyRequest decodes a point of an app's economic space from its
// index.
func studyRequest(app string, k int) service.Request {
	pick := func(n int) int {
		i := k % n
		k /= n
		return i
	}
	price := studyPrices[pick(len(studyPrices))]
	life := studyLifetimes[pick(len(studyLifetimes))]
	grid := studyIntensity[pick(len(studyIntensity))]
	obj := studyObjectives[pick(len(studyObjectives))]
	return service.Request{
		App:       app,
		TCO:       &service.TCOSpec{ElectricityPerKWh: &price, LifetimeYears: &life},
		Carbon:    &service.CarbonSpec{GridGCO2ePerKWh: &grid},
		Objective: obj,
	}
}
