package oassis

import (
	"errors"
	"fmt"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/oassisql"
	"oassis/internal/serve"
)

// ErrNotFrozen is returned by Exec and NewSession when the DB has not been
// frozen yet.
var ErrNotFrozen = errors.New("oassis: DB must be frozen before Exec")

// ErrInvalidOption is wrapped by Exec and NewSession errors reporting an
// out-of-range Option value (negative counts, ratios outside [0, 1]).
var ErrInvalidOption = errors.New("oassis: invalid option")

// Session errors, re-exported from the engine so callers can errors.Is
// against them.
var (
	// ErrSessionDone is returned by Session.Submit after the run finished.
	ErrSessionDone = core.ErrSessionDone
	// ErrUnknownQuestion is returned by Session.Submit for a question ID
	// the session never issued or has already consumed an answer for.
	ErrUnknownQuestion = core.ErrUnknownQuestion
)

// Serving-tier errors, re-exported from the sharded multi-tenant tier
// behind oassis-server so embedding applications can errors.Is against
// the conditions the server maps to HTTP statuses (429 and 404).
var (
	// ErrOverloaded is returned by the serving tier when admission control
	// sheds a long-poll — the global in-flight budget or a shard's waiter
	// queue is exhausted. oassis-server maps it to 429 with a Retry-After.
	ErrOverloaded = serve.ErrOverloaded
	// ErrUnknownTenant is returned for a tenant name the serving registry
	// does not host. oassis-server maps it to 404.
	ErrUnknownTenant = serve.ErrUnknownTenant
)

// ErrUnknownTerm reports a triple naming a term absent from the DB's
// vocabulary. Retrieve it from Exec errors with errors.As.
type ErrUnknownTerm struct {
	Name string
}

func (e ErrUnknownTerm) Error() string {
	return fmt.Sprintf("oassis: unknown term %q", e.Name)
}

// ParseError is a query syntax error with its source position; ParseQuery
// errors match it via errors.As.
type ParseError = oassisql.ParseError

func invalidOption(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrInvalidOption, fmt.Sprintf(format, args...))
}

// validate rejects out-of-range option values before a run starts.
func (o *options) validate() error {
	if o.answersPerQuestion < 1 {
		return invalidOption("answers per question %d (want >= 1)", o.answersPerQuestion)
	}
	if o.specializationRatio < 0 || o.specializationRatio > 1 {
		return invalidOption("specialization ratio %g (want within [0, 1])", o.specializationRatio)
	}
	if o.maxQuestions < 0 {
		return invalidOption("max questions %d (want >= 0)", o.maxQuestions)
	}
	if o.maxPerMember < 0 {
		return invalidOption("max questions per member %d (want >= 0)", o.maxPerMember)
	}
	if o.topK < 0 {
		return invalidOption("top-k %d (want >= 0)", o.topK)
	}
	if s := o.stopPolicy; s != "" && s != aggregate.StopThreshold && s != aggregate.StopSpecies {
		return invalidOption("stop policy %q (want one of %s, %s)",
			s, aggregate.StopSpecies, aggregate.StopThreshold)
	}
	if o.parallelism < 0 {
		return invalidOption("parallelism %d (want >= 0)", o.parallelism)
	}
	if o.panelSize < 0 {
		return invalidOption("panel size %d (want >= 0)", o.panelSize)
	}
	return nil
}
