// Code generated by legion-idl from interface Counter. DO NOT EDIT.
package demo

import (
	"context"

	"repro/internal/idl"
	"repro/internal/rt"
)

// Counter's remote methods: call one with Call(ctx, caller.To(target), ...).
var (
	CounterAdd = rt.M1("Add", rt.Int64Param("delta"), rt.Int64Param("value"))
	CounterGet = rt.M0("Get", rt.Int64Param("value"))
)

// CounterServer is the behaviour a Go object provides to serve Counter.
type CounterServer interface {
	Add(ctx context.Context, delta int64) (int64, error)
	Get(ctx context.Context) (int64, error)
}

var counterMethods = rt.NewServer("Counter",
	rt.Serve1(CounterAdd, CounterServer.Add),
	rt.Serve0(CounterGet, CounterServer.Get),
)

// CounterInterface returns the IDL interface. Every call returns the same
// value; Clone it before changing it.
func CounterInterface() *idl.Interface { return counterMethods.Interface() }

// NewCounterImpl adapts a CounterServer into a Legion object implementation.
// State persistence (SaveState/RestoreState) may be supplied; nil
// save/restore yields a stateless object.
func NewCounterImpl(srv CounterServer, save func() ([]byte, error), restore func([]byte) error) rt.Impl {
	return counterMethods.Impl(srv, save, restore)
}
