package lockfake

import (
	"sync"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

type srv struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	env *sim.Env
	net *simnet.Network
}

func (s *srv) badSleep() {
	s.mu.Lock()
	s.env.Sleep(time.Millisecond) // want "Sleep blocks in the sim scheduler while a sync mutex is held"
	s.mu.Unlock()
}

func (s *srv) badDeferTransfer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.net.Transfer(0, 1, 1024) // want "Transfer blocks in the sim scheduler while a sync mutex is held"
}

func (s *srv) badCall() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, _ := simnet.TryCall(s.net, 0, 1, 64, 64, func() int { return 1 }) // want "TryCall blocks in the sim scheduler while a sync mutex is held"
	return v
}

func (s *srv) badRLockWait(f *sim.Future[int]) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return f.Wait() // want "Wait blocks in the sim scheduler while a sync mutex is held"
}

func (s *srv) badDiskUnderBranchLock(cond bool) {
	s.mu.Lock()
	if cond {
		s.net.Node(0).DiskRead(4096) // want "DiskRead blocks in the sim scheduler while a sync mutex is held"
	}
	s.mu.Unlock()
}
