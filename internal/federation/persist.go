package federation

import (
	"fmt"

	"repro/internal/store"
)

// HydratePAP bootstraps the domain's policy base from a durable policy
// log: the recovered snapshot + WAL tail rebuild the PAP, the PDP gets the
// recovered base as one root, and the log becomes the PAP's backend so
// every later administrative write is durable before it is acknowledged
// and reaches the PDP through the domain's delta pipeline. Call it on a
// fresh domain, before the first Put — a restarted domain then serves
// exactly the decisions it acknowledged before the crash instead of
// fail-closing on an empty base.
func (d *Domain) HydratePAP(lg *store.Log) error {
	if err := lg.Bootstrap(d.PAP); err != nil {
		return fmt.Errorf("federation: domain %s: %w", d.Name, err)
	}
	root, err := d.PAP.BuildRoot(d.Root())
	if err == nil {
		err = d.PDP.SetRoot(root)
	}
	if err != nil {
		return fmt.Errorf("federation: domain %s: %w", d.Name, err)
	}
	return nil
}
