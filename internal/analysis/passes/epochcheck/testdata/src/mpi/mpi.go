// Package mpi is a stand-in for cafmpi/internal/mpi: same package base name,
// type names and method shapes, so (pkg, type, method) matching resolves
// identically to the real runtime.
package mpi

type Comm struct{}

func (c *Comm) Rank() int { return 0 }

type Win struct{}

func WinAllocate(c *Comm, size int) (*Win, error) { return &Win{}, nil }

func (w *Win) LockAll() error                           { return nil }
func (w *Win) UnlockAll() error                         { return nil }
func (w *Win) Put(buf []byte, target, disp int) error   { return nil }
func (w *Win) Get(buf []byte, target, disp int) error   { return nil }
func (w *Win) Flush(target int) error                   { return nil }
func (w *Win) FlushAll() error                          { return nil }
func (w *Win) Free() error                              { return nil }
