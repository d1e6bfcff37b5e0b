package sched

import (
	"fmt"
	"testing"
)

// BenchmarkFreePoolCycle times one Pop → Occupy → Vacate cycle, the path
// the simulator and the daemon take per task, on a half-full pool: every
// machine runs one of four applications on its first VM, so every second
// VM is free under that application. "fifo" pops AnyCategory, the VM free
// the longest; "mios" pops by category, as the interference-aware policies
// do.
func BenchmarkFreePoolCycle(b *testing.B) {
	apps := []string{"a", "b", "c", "d"}
	for _, mode := range []string{"fifo", "mios"} {
		for _, machines := range []int{8, 1024, 12500} {
			b.Run(fmt.Sprintf("%s/m%d", mode, machines), func(b *testing.B) {
				p := NewIdleFreePool(machines)
				for m := 0; m < machines; m++ {
					p.Occupy(m, 0, apps[m%len(apps)])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					category := AnyCategory
					if mode == "mios" {
						category = apps[i%len(apps)]
					}
					m, s, err := p.Pop(category)
					if err != nil {
						b.Fatal(err)
					}
					p.Occupy(m, s, apps[i%len(apps)])
					p.Vacate(m, s)
				}
			})
		}
	}
}
