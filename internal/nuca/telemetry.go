package nuca

import "ndpext/internal/telemetry"

// ReportTelemetry publishes the controller's counters into the registry
// under the "nuca." prefix.
func (c *Controller) ReportTelemetry(r *telemetry.Registry) {
	const prefix = "nuca"
	r.PutUint(prefix+".lookups", c.stats.Lookups)
	r.PutUint(prefix+".hits", c.stats.Hits)
	r.PutUint(prefix+".misses", c.stats.Misses)
	r.PutUint(prefix+".meta_hits", c.stats.MetaHits)
	r.PutUint(prefix+".meta_misses", c.stats.MetaMisses)
	r.PutUint(prefix+".writebacks", c.stats.Writebacks)
}
