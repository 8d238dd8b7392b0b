// Package thermal is the server cooling substrate of the ASIC Cloud design
// flow. It replaces the paper's ANSYS Icepak CFD runs with the validated
// analytical model the paper actually sweeps: a TIM + spreader + fin-array
// resistance network, commercial fan curves intersected with duct pressure
// drops, serial air heating along a lane of ASICs, and layout efficiency
// models for the Normal, Staggered and DUCT PCB arrangements (Figure 7).
//
// # Units
//
// Geometry is in metres, temperatures in °C (differences in kelvin), flow
// in m³/s, pressure in pascals — except die area, which follows the
// paper's convention of mm². Thermal resistances are K/W, conductivities
// W/(m·K). Every exported quantity's doc states its unit; the asiclint
// unitdoc analyzer enforces this.
//
// # Entry points
//
// OptimizeSink searches the heat-sink geometry for the maximum
// sustainable per-chip power at a given lane. It is two halves split at
// the die: NewSinkCandidates keeps the buildable sinks of the search
// grid with their airflow solved and every other term that depends on
// the lane shape alone, and SinkCandidates.Best scores them at one die
// area in a few flops per candidate, without allocating. core.Engine
// memoizes both — plans per geometry, which is the service's
// warm-sweep fast path, and candidate sets per lane shape, so a cold
// sweep solves airflow once per shape rather than per geometry.
// Lane.Airflow couples the fan curve to the duct's pressure drop; Best
// inverts the resistance network, which is linear in power, to the
// paper's per-chip power budget.
package thermal
