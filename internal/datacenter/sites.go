package datacenter

import "fmt"

// Site captures the geography-dependent inputs the paper's operators
// optimize over (§3): "KnCminer has a facility in Iceland, because there
// is geothermal and hydroelectric energy available at extremely low
// cost, and because cool air is readily available. Bitfury created a
// 20 MW mining facility in the Republic of Georgia, where electricity
// is also cheap."
type Site struct {
	Name string
	// ElectricityPerKWh in dollars.
	ElectricityPerKWh float64
	// InletTempC achievable with free-air cooling at the site.
	InletTempC float64
	// PUE achievable given the climate.
	PUE float64
	// DCCapexPerWattYear reflects local construction/land costs.
	DCCapexPerWattYear float64
}

// Sites returns the catalog: the paper's two named locations plus
// mainstream references.
func Sites() []Site {
	return []Site{
		{Name: "Iceland (geothermal/hydro)", ElectricityPerKWh: 0.025, InletTempC: 18, PUE: 1.05, DCCapexPerWattYear: 1.55},
		{Name: "Republic of Georgia (hydro)", ElectricityPerKWh: 0.035, InletTempC: 24, PUE: 1.08, DCCapexPerWattYear: 1.35},
		{Name: "US wholesale", ElectricityPerKWh: 0.06, InletTempC: 30, PUE: 1.10, DCCapexPerWattYear: 1.60},
		{Name: "US retail colo", ElectricityPerKWh: 0.12, InletTempC: 30, PUE: 1.30, DCCapexPerWattYear: 2.10},
	}
}

// Validate reports whether a site's parameters are physical.
func (s Site) Validate() error {
	switch {
	case s.ElectricityPerKWh <= 0:
		return fmt.Errorf("datacenter: %s: electricity price must be positive", s.Name)
	case s.PUE < 1:
		return fmt.Errorf("datacenter: %s: PUE below 1", s.Name)
	case s.InletTempC < -20 || s.InletTempC > 50:
		return fmt.Errorf("datacenter: %s: implausible inlet %v °C", s.Name, s.InletTempC)
	case s.DCCapexPerWattYear <= 0:
		return fmt.Errorf("datacenter: %s: capex must be positive", s.Name)
	}
	return nil
}
