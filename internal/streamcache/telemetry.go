package streamcache

import "ndpext/internal/telemetry"

// ReportTelemetry publishes the controller's counters into the registry
// under the "streamcache." prefix.
func (c *Controller) ReportTelemetry(r *telemetry.Registry) {
	const prefix = "streamcache"
	r.PutUint(prefix+".lookups", c.stats.Lookups)
	r.PutUint(prefix+".hits", c.stats.Hits)
	r.PutUint(prefix+".misses", c.stats.Misses)
	r.PutUint(prefix+".bypasses", c.stats.Bypasses)
	r.PutUint(prefix+".no_space", c.stats.NoSpace)
	r.PutUint(prefix+".slb_hits", c.stats.SLBHits)
	r.PutUint(prefix+".slb_misses", c.stats.SLBMisses)
	r.PutUint(prefix+".write_exceptions", c.stats.WriteExceptions)
	r.PutUint(prefix+".writebacks", c.stats.Writebacks)
}
