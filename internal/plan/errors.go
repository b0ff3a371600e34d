package plan

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknownPolicy is wrapped by every ordering-policy validation failure
// (OrderingByName, Plan.Variant), so callers at any layer — the
// facade's option validation, the server's tenant boot — can errors.Is
// against one sentinel instead of matching message text.
var ErrUnknownPolicy = errors.New("plan: unknown ordering policy")

// unknownPolicy builds the canonical unknown-ordering error: the sentinel,
// the offending name, and the registry so the message is actionable.
func unknownPolicy(name string) error {
	return fmt.Errorf("%w %q (want one of %s)", ErrUnknownPolicy, name,
		strings.Join(OrderingNames(), ", "))
}
