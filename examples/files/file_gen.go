// Code generated by legion-idl from interface File. DO NOT EDIT.
package main

import (
	"context"

	"repro/internal/idl"
	"repro/internal/rt"
)

// File's remote methods: call one with Call(ctx, caller.To(target), ...).
var (
	FileReadAt   = rt.M2("ReadAt", rt.Uint64Param("offset"), rt.Uint64Param("n"), rt.BytesParam("data"))
	FileWriteAt  = rt.M2("WriteAt", rt.Uint64Param("offset"), rt.BytesParam("data"), rt.Uint64Param("size"))
	FileSize     = rt.M0("Size", rt.Uint64Param("size"))
	FileTruncate = rt.M1("Truncate", rt.Uint64Param("size"), rt.None)
)

// FileServer is the behaviour a Go object provides to serve File.
type FileServer interface {
	ReadAt(ctx context.Context, offset uint64, n uint64) ([]byte, error)
	WriteAt(ctx context.Context, offset uint64, data []byte) (uint64, error)
	Size(ctx context.Context) (uint64, error)
	Truncate(ctx context.Context, size uint64) error
}

var fileMethods = rt.NewServer("File",
	rt.Serve2(FileReadAt, FileServer.ReadAt),
	rt.Serve2(FileWriteAt, FileServer.WriteAt),
	rt.Serve0(FileSize, FileServer.Size),
	rt.Serve1(FileTruncate, func(s FileServer, ctx context.Context, size uint64) (rt.Void, error) {
		return rt.Void{}, s.Truncate(ctx, size)
	}),
)

// FileInterface returns the IDL interface. Every call returns the same
// value; Clone it before changing it.
func FileInterface() *idl.Interface { return fileMethods.Interface() }

// NewFileImpl adapts a FileServer into a Legion object implementation.
// State persistence (SaveState/RestoreState) may be supplied; nil
// save/restore yields a stateless object.
func NewFileImpl(srv FileServer, save func() ([]byte, error), restore func([]byte) error) rt.Impl {
	return fileMethods.Impl(srv, save, restore)
}
