package main

import (
	"cofs/internal/obs"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// spanFS is a vfs.Filesystem that opens one span per call around the
// file system it wraps, on the calling proc's track. The traced run
// mounts it twice per node: around core.FS (spans "cofs.<op>") and
// around the node's pfs client (spans "pfs.<op>"), so the program's own
// op.*, rpc.*, lock.wait, 2pc.* and wal.* spans nest inside them. Spans
// charge no virtual time.
type spanFS struct {
	fs vfs.Filesystem
	tr *obs.Tracer
	n  spanNames
	// dirty holds the handles that moved data: their release flushes
	// write-behind data, so it is named <prefix>.flush and counted as
	// data-path time.
	dirty map[vfs.Handle]bool
	// Bytes counts the data bytes read and written through the wrapper.
	Bytes int64
}

// spanNames holds the span name of every Filesystem call, built once so
// the traced hot path does not concatenate strings.
type spanNames struct {
	lookup, getattr, setattr, create, open, release, flush, read, write,
	fsync, mkdir, rmdir, unlink, rename, link, symlink, readlink, readdir,
	statfs string
}

func newSpanFS(fs vfs.Filesystem, tr *obs.Tracer, prefix string) *spanFS {
	p := prefix + "."
	return &spanFS{
		fs: fs, tr: tr, dirty: make(map[vfs.Handle]bool),
		n: spanNames{
			lookup: p + "lookup", getattr: p + "getattr", setattr: p + "setattr",
			create: p + "create", open: p + "open", release: p + "release",
			flush: p + "flush", read: p + "read", write: p + "write",
			fsync: p + "fsync", mkdir: p + "mkdir", rmdir: p + "rmdir",
			unlink: p + "unlink", rename: p + "rename", link: p + "link",
			symlink: p + "symlink", readlink: p + "readlink",
			readdir: p + "readdir", statfs: p + "statfs",
		},
	}
}

func (s *spanFS) begin(p *sim.Proc, name string) { s.tr.Begin(p, "", name, -1) }

func (s *spanFS) Root() vfs.Ino { return s.fs.Root() }

func (s *spanFS) Lookup(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) (vfs.Attr, error) {
	s.begin(p, s.n.lookup)
	defer s.tr.End(p)
	return s.fs.Lookup(p, ctx, dir, name)
}

func (s *spanFS) Getattr(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino) (vfs.Attr, error) {
	s.begin(p, s.n.getattr)
	defer s.tr.End(p)
	return s.fs.Getattr(p, ctx, ino)
}

func (s *spanFS) Setattr(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, set vfs.SetAttr) (vfs.Attr, error) {
	s.begin(p, s.n.setattr)
	defer s.tr.End(p)
	return s.fs.Setattr(p, ctx, ino, set)
}

func (s *spanFS) Create(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32) (vfs.Attr, vfs.Handle, error) {
	s.begin(p, s.n.create)
	defer s.tr.End(p)
	return s.fs.Create(p, ctx, dir, name, mode)
}

func (s *spanFS) Open(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	s.begin(p, s.n.open)
	defer s.tr.End(p)
	return s.fs.Open(p, ctx, ino, flags)
}

func (s *spanFS) Release(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle) error {
	name := s.n.release
	if s.dirty[h] {
		delete(s.dirty, h)
		name = s.n.flush
	}
	s.begin(p, name)
	defer s.tr.End(p)
	return s.fs.Release(p, ctx, h)
}

func (s *spanFS) Read(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle, off, n int64) (int64, error) {
	s.begin(p, s.n.read)
	defer s.tr.End(p)
	got, err := s.fs.Read(p, ctx, h, off, n)
	s.Bytes += got
	return got, err
}

func (s *spanFS) Write(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle, off, n int64) (int64, error) {
	s.begin(p, s.n.write)
	defer s.tr.End(p)
	got, err := s.fs.Write(p, ctx, h, off, n)
	s.Bytes += got
	if got > 0 {
		s.dirty[h] = true
	}
	return got, err
}

func (s *spanFS) Fsync(p *sim.Proc, ctx vfs.Ctx, h vfs.Handle) error {
	s.begin(p, s.n.fsync)
	defer s.tr.End(p)
	return s.fs.Fsync(p, ctx, h)
}

func (s *spanFS) Mkdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string, mode uint32) (vfs.Attr, error) {
	s.begin(p, s.n.mkdir)
	defer s.tr.End(p)
	return s.fs.Mkdir(p, ctx, dir, name, mode)
}

func (s *spanFS) Rmdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) error {
	s.begin(p, s.n.rmdir)
	defer s.tr.End(p)
	return s.fs.Rmdir(p, ctx, dir, name)
}

func (s *spanFS) Unlink(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name string) error {
	s.begin(p, s.n.unlink)
	defer s.tr.End(p)
	return s.fs.Unlink(p, ctx, dir, name)
}

func (s *spanFS) Rename(p *sim.Proc, ctx vfs.Ctx, srcDir vfs.Ino, srcName string, dstDir vfs.Ino, dstName string) error {
	s.begin(p, s.n.rename)
	defer s.tr.End(p)
	return s.fs.Rename(p, ctx, srcDir, srcName, dstDir, dstName)
}

func (s *spanFS) Link(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino, dir vfs.Ino, name string) (vfs.Attr, error) {
	s.begin(p, s.n.link)
	defer s.tr.End(p)
	return s.fs.Link(p, ctx, ino, dir, name)
}

func (s *spanFS) Symlink(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino, name, target string) (vfs.Attr, error) {
	s.begin(p, s.n.symlink)
	defer s.tr.End(p)
	return s.fs.Symlink(p, ctx, dir, name, target)
}

func (s *spanFS) Readlink(p *sim.Proc, ctx vfs.Ctx, ino vfs.Ino) (string, error) {
	s.begin(p, s.n.readlink)
	defer s.tr.End(p)
	return s.fs.Readlink(p, ctx, ino)
}

func (s *spanFS) Readdir(p *sim.Proc, ctx vfs.Ctx, dir vfs.Ino) ([]vfs.DirEntry, error) {
	s.begin(p, s.n.readdir)
	defer s.tr.End(p)
	return s.fs.Readdir(p, ctx, dir)
}

func (s *spanFS) StatFS(p *sim.Proc, ctx vfs.Ctx) (vfs.Statfs, error) {
	s.begin(p, s.n.statfs)
	defer s.tr.End(p)
	return s.fs.StatFS(p, ctx)
}
