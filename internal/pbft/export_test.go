package pbft

import "rubin/internal/auth"

// KeyringOf exposes a replica's keyring to the deployment identity test.
func KeyringOf(r *Replica) *auth.Keyring { return r.keyring }

// Envelope is an authenticated wrapper materialised: what openEnvelope
// walks, with the MAC vector collected.
type Envelope struct {
	Sender  uint32
	Payload []byte
	Auth    auth.Authenticator
}

// DecodeEnvelope collects what openEnvelope — the receive path's walker —
// shows it, for the tests that compare whole envelopes. Payload and the MACs
// alias raw, under the same rule as Decode.
func DecodeEnvelope(raw []byte) (env Envelope, err error) {
	env.Sender, env.Payload, err = openEnvelope(raw, func(_ int, mac []byte) { env.Auth = append(env.Auth, mac) })
	if err != nil {
		return Envelope{}, err
	}
	return env, nil
}
