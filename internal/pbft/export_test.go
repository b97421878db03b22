package pbft

import "rubin/internal/auth"

// KeyringOf exposes a replica's keyring to the deployment identity test.
func KeyringOf(r *Replica) *auth.Keyring { return r.keyring }
