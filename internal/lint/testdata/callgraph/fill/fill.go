// Cross-package call-graph fixture, implementation side, in the
// parameter shapes the real prefetchers use. Parameter names are not
// part of a method's type, so Unnamed and Blank implement
// sink.Filler; Mistyped's line parameter has another type.
package fill

import "pmp/internal/mem"

type Unnamed struct{}

func (*Unnamed) OnFill(mem.Addr, int, bool) {}

type Blank struct{}

func (*Blank) OnFill(_ mem.Addr, _ int, useful bool) {}

type Mistyped struct{}

func (*Mistyped) OnFill(line uint64, level int, useful bool) {}
