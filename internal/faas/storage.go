package faas

import (
	"ofc/internal/imoc"
	"ofc/internal/objstore"
	"ofc/internal/simnet"
	"ofc/internal/store"
)

// backendStorage binds function bodies to a bare storage engine — no
// proxy policy, no hit accounting, just the Storage verbs over a
// store.Backend. It is the baseline data plane of §7.2 expressed
// against the same interface the full OFC proxy uses.
type backendStorage struct {
	be store.Backend
}

// NewRSDSStorage binds function bodies directly to the RSDS (the
// OWK-Swift configuration of §7.2) — the direct-passthrough engine
// with nothing stacked on top.
func NewRSDSStorage(st *objstore.Store) Storage {
	return &backendStorage{be: store.NewPassthrough(st)}
}

func (s *backendStorage) Get(caller simnet.NodeID, key string, _ PutOpts) (Blob, error) {
	blob, _, err := s.be.Read(caller, key)
	return blob, err
}

func (s *backendStorage) Put(caller simnet.NodeID, key string, blob Blob, _ PutOpts) error {
	_, err := s.be.Write(caller, key, blob, nil, caller)
	return err
}

// imocStorage is the OWK-Redis baseline: all data lives in a
// centralized in-memory cache the tenant provisioned (§7.2's best-case
// data access time).
type imocStorage struct {
	cache *imoc.Cache
}

// NewIMOCStorage binds function bodies to the Redis-like cache.
func NewIMOCStorage(cache *imoc.Cache) Storage {
	return &imocStorage{cache: cache}
}

func (s *imocStorage) Get(caller simnet.NodeID, key string, _ PutOpts) (Blob, error) {
	return s.cache.Get(caller, key)
}

func (s *imocStorage) Put(caller simnet.NodeID, key string, blob Blob, _ PutOpts) error {
	s.cache.Set(caller, key, blob)
	return nil
}
