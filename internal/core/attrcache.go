package core

import (
	"time"

	"cofs/internal/lru"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// clientCache is the client-side metadata cache the paper sketches at
// the end of section IV-B: the punctual data-transfer penalties of COFS
// occur when GPFS serves strictly local accesses from its caches while
// COFS still pays metadata round trips — "the nature of the cases would
// make it possible to reduce the differences by adding the same
// aggressive caching and delegation techniques ... to the COFS
// framework".
//
// It runs in one of two modes (both disabled by default, matching the
// paper's measured prototype):
//
//   - TTL mode (COFSParams.AttrCacheTimeout > 0): recently seen
//     attributes and underlying mappings are reused within a validity
//     window, close-to-open style (NFS/FUSE attribute timeouts). Cheap,
//     but stale by up to one window under cross-node mutation.
//
//   - Lease mode (COFSParams.AttrLease > 0; wins over TTL): entries are
//     installed only under a server-issued lease. Shards remember which
//     client holds a lease on which attribute or dentry and revoke it
//     at the commit instant of any conflicting mutation (see lease.go),
//     so a valid entry is never stale — at any MetadataShards or node
//     count. Lease mode also caches dentries, positive and negative, so
//     repeated Lookup of a hot name (or of a name that does not exist)
//     costs no round trip at all.
type clientCache struct {
	ttl   time.Duration // TTL mode window (legacy revalidation)
	lease time.Duration // lease term; > 0 selects lease mode

	attrs *lru.Cache[vfs.Ino, attrCacheEntry]
	dents *lru.Cache[dentCacheKey, dentCacheEntry]

	Stats CacheStats
}

// CacheStats counts client-cache events (tooling/ablation surface).
type CacheStats struct {
	// Hits and Misses count attribute-cache probes.
	Hits   int64 `counter:"attr-hits"`
	Misses int64 `counter:"attr-misses"`
	// DentryHits counts positive dentry-cache hits (lease mode).
	DentryHits int64 `counter:"dentry-hits"`
	// NegativeHits counts Lookups answered ENOENT from a cached
	// negative dentry (lease mode).
	NegativeHits int64 `counter:"negative-hits"`
	// Installs counts lease-granted entry installations.
	Installs int64 `counter:"lease-installs"`
	// Revocations counts entries dropped by a shard's lease recall.
	Revocations int64 `counter:"lease-revoked"`
}

type attrCacheEntry struct {
	attr  vfs.Attr
	upath string
	at    time.Duration // insertion time (TTL mode)
	exp   time.Duration // lease expiry (lease mode)
}

type dentCacheKey struct {
	parent vfs.Ino
	name   string
}

// dentCacheEntry is a cached name resolution; child 0 marks a negative
// entry (the name is known not to exist).
type dentCacheEntry struct {
	child vfs.Ino
	exp   time.Duration
}

// newClientCache builds the cache for one client from the COFS knobs; a
// zero AttrCacheTimeout and AttrLease yield a disabled cache.
func newClientCache(cfg params.COFSParams) *clientCache {
	capacity := cfg.AttrCacheEntries
	if capacity < 16 {
		capacity = 16
	}
	return &clientCache{
		ttl:   cfg.AttrCacheTimeout,
		lease: cfg.AttrLease,
		attrs: lru.New[vfs.Ino, attrCacheEntry](capacity),
		dents: lru.New[dentCacheKey, dentCacheEntry](capacity),
	}
}

func (c *clientCache) enabled() bool { return c.ttl > 0 || c.lease > 0 }

// leased reports lease mode (coherent, server-revoked entries).
func (c *clientCache) leased() bool { return c.lease > 0 }

// get returns a still-valid cached attribute entry.
func (c *clientCache) get(p *sim.Proc, ino vfs.Ino) (attrCacheEntry, bool) {
	if !c.enabled() {
		return attrCacheEntry{}, false
	}
	e, ok := c.attrs.Get(ino)
	if c.leased() {
		if !ok || p.Now() >= e.exp {
			if ok {
				c.attrs.Remove(ino)
			}
			c.Stats.Misses++
			return attrCacheEntry{}, false
		}
		c.Stats.Hits++
		return e, true
	}
	if !ok || p.Now()-e.at > c.ttl {
		if ok {
			c.attrs.Remove(ino)
		}
		c.Stats.Misses++
		return attrCacheEntry{}, false
	}
	c.Stats.Hits++
	return e, true
}

// lookupDentry resolves (parent, name) from the dentry cache (lease
// mode only). The second result reports a negative entry. Hit counting
// lives in FS.Lookup, which knows whether the resolution actually
// served the operation (a dentry hit whose attr entry has expired
// still pays the wire round trip and must not count).
func (c *clientCache) lookupDentry(p *sim.Proc, parent vfs.Ino, name string) (child vfs.Ino, negative, ok bool) {
	if !c.leased() {
		return 0, false, false
	}
	e, found := c.dents.Get(dentCacheKey{parent: parent, name: name})
	if !found || p.Now() >= e.exp {
		if found {
			c.dents.Remove(dentCacheKey{parent: parent, name: name})
		}
		return 0, false, false
	}
	if e.child == 0 {
		return 0, true, true
	}
	return e.child, false, true
}

// put records fresh attributes in TTL mode; upath may be empty if
// unknown (an existing non-empty mapping is preserved). In lease mode
// it is a no-op: only a server grant may install an entry, otherwise
// the entry would be unprotected by revocation.
func (c *clientCache) put(p *sim.Proc, attr vfs.Attr, upath string) {
	if !c.enabled() || c.leased() {
		return
	}
	if upath == "" {
		if old, ok := c.attrs.Peek(attr.Ino); ok {
			upath = old.upath
		}
	}
	c.attrs.Put(attr.Ino, attrCacheEntry{attr: attr, upath: upath, at: p.Now()})
}

// installAttr installs a lease-granted attribute entry. It runs at the
// shard's grant instant (while the reply is being built), so a
// revocation committed after the grant always finds — and kills — the
// entry; there is no stale-install window.
func (c *clientCache) installAttr(p *sim.Proc, attr vfs.Attr, upath string, exp time.Duration) {
	if upath == "" {
		if old, ok := c.attrs.Peek(attr.Ino); ok {
			upath = old.upath
		}
	}
	c.Stats.Installs++
	c.attrs.Put(attr.Ino, attrCacheEntry{attr: attr, upath: upath, exp: exp})
}

// installDentry installs a lease-granted name resolution (child 0 for a
// negative entry).
func (c *clientCache) installDentry(parent vfs.Ino, name string, child vfs.Ino, exp time.Duration) {
	c.Stats.Installs++
	c.dents.Put(dentCacheKey{parent: parent, name: name}, dentCacheEntry{child: child, exp: exp})
}

// drop forgets an attribute entry (unlink, truncate, local
// modification — the mutating client's own invalidation, which rides
// the operation itself rather than a lease recall).
func (c *clientCache) drop(ino vfs.Ino) {
	if c.enabled() {
		c.attrs.Remove(ino)
	}
}

// dropDentry forgets a cached name resolution.
func (c *clientCache) dropDentry(parent vfs.Ino, name string) {
	if c.enabled() {
		c.dents.Remove(dentCacheKey{parent: parent, name: name})
	}
}

// revokeAttr is drop on behalf of a shard's lease recall.
func (c *clientCache) revokeAttr(ino vfs.Ino) {
	if _, ok := c.attrs.Peek(ino); ok {
		c.Stats.Revocations++
	}
	c.attrs.Remove(ino)
}

// revokeDentry drops a cached name resolution on a shard's recall.
func (c *clientCache) revokeDentry(parent vfs.Ino, name string) {
	if _, ok := c.dents.Peek(dentCacheKey{parent: parent, name: name}); ok {
		c.Stats.Revocations++
	}
	c.dents.Remove(dentCacheKey{parent: parent, name: name})
}

// purge forgets everything (failover: the client reconnected to a
// different service instance and must revalidate).
func (c *clientCache) purge() {
	c.attrs.Clear()
	c.dents.Clear()
}
