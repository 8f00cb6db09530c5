package core

import (
	"ofc/internal/chaos"
	"ofc/internal/simnet"
)

// ApplyChaos arms a chaos schedule against a running System. The
// injector marks the node down or up; that one flag is what every
// layer reads, so the hooks add only what each layer does about it:
// on a crash, the FaaS worker's sandboxes and grant die with the
// machine and the cache cluster starts its RAMCloud-style timed
// recovery; on a restart, the storage server's RAM comes back empty
// and the cache governor re-grows the node's cache from
// booked-but-unused memory. Returns the injector so callers can
// inspect Applied().
//
// Must be called before the affected traffic starts; the injector
// fires on the simulation's virtual clock.
func (s *System) ApplyChaos(sched *chaos.Schedule, seed int64) *chaos.Injector {
	inj := chaos.NewInjector(s.Net, sched, seed)
	inj.OnCrash = func(n simnet.NodeID) {
		if inv := s.Platform.InvokerOn(n); inv != nil {
			inv.Crash()
		}
		// The cluster notices after CrashDetectTimeout and promotes the
		// victim's backup replicas; runs as its own process so the
		// injector timer is not held for the whole recovery.
		s.Env.Go(func() { s.KV.Recover(n) })
	}
	inj.OnRestart = func(n simnet.NodeID) {
		s.KV.Restart(n)
		if a := s.Gov.Agent(n); a != nil {
			a.Grow()
		}
	}
	inj.Start()
	return inj
}
