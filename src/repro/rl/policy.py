"""Actor-critic policy: separate actor and critic MLPs.

Matches the paper's hyperparameters when left at defaults: two networks
(actor π_θ and critic V_φ), each with 2x256 tanh hidden units.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, cast

import numpy as np

from repro.analysis.invariants import InvariantViolation, invariants_enabled
from repro.nn.mlp import MLP, MLPInference

__all__ = ["ActorCriticPolicy"]


class ActorCriticPolicy:
    """Paired actor (π_θ) and critic (V_φ) networks.

    Args:
        obs_dim: Observation vector size (``4 Δ_G + 4`` for the paper's
            POMDP).
        num_actions: Action count (``Δ_G + 1``).
        hidden: Hidden layer widths (paper: 2x 256, tanh).
        rng: Seed/generator for weight initialisation.
        parameters: ``(actor_weights, critic_weights)`` to copy in place of
            initialising — the one construction path :meth:`clone` and
            :meth:`load` share; no initialiser runs and no randomness is
            drawn.
    """

    def __init__(
        self,
        obs_dim: int,
        num_actions: int,
        hidden: Sequence[int] = (256, 256),
        rng=None,
        parameters: Optional[
            Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]
        ] = None,
    ) -> None:
        if num_actions < 1:
            raise ValueError(f"num_actions must be >= 1, got {num_actions}")
        actor_weights, critic_weights = parameters or (None, None)
        if parameters is None:
            rng = np.random.default_rng(rng)
        self.obs_dim = obs_dim
        self.num_actions = num_actions
        self.actor = MLP(obs_dim, hidden, num_actions, out_gain=0.01, rng=rng,
                         weights=actor_weights)
        self.critic = MLP(obs_dim, hidden, 1, out_gain=1.0, rng=rng,
                          weights=critic_weights)
        self._workspace: Optional[MLPInference] = None
        #: float32 actor workspace whose :meth:`~MLPInference.certified_argmax`
        #: decides for a frozen policy (see :meth:`freeze`); ``None`` for a
        #: writable one, whose weights a cast could go stale against, and
        #: for a frozen one without a finite bound (weights so large a
        #: float32 sum could overflow).
        self.certified_workspace: Optional[MLPInference] = None
        self._sanitize = invariants_enabled()

    # ------------------------------------------------------------------

    def act_single(self, obs: np.ndarray, deterministic: bool = True) -> int:
        """The greedy action for a single observation vector (inference):
        the argmax of :meth:`logits_single`.  Sampling is exploration
        inside the trainers: the keyword is kept for callers
        that spell out ``deterministic=True``, and ``False`` raises
        ``ValueError``.

        A frozen policy decides on its :attr:`certified_workspace`, which
        answers only when
        :meth:`~repro.nn.mlp.MLPInference.certified_argmax` proves its
        argmax is the float64 one; otherwise the float64
        :meth:`logits_single` decides on the same ``obs``.  A writable
        policy decides in float64.  The answer is therefore always the
        float64 one.  Under ``REPRO_CHECK_INVARIANTS`` every certified
        answer is re-decided in float64 (:meth:`cross_check`)."""
        if not deterministic:
            raise ValueError(
                "act_single decides greedily; sampling belongs to training (act)"
            )
        certified = self.certified_workspace
        if certified is not None:
            action = certified.certified_argmax(obs)
            if action >= 0:
                if self._sanitize:
                    self.cross_check(obs.reshape(1, -1), (action,))
                return action
        return int(self.logits_single(obs).argmax())

    def logits_single(self, obs: np.ndarray) -> np.ndarray:
        """Actor logits for one observation through the exact float64
        batch-1 forward that :meth:`act_single` runs — bitwise
        ``actor.forward(obs[None, :])[0]``, and so the reference that
        decides every row a certified float32 forward declines.

        Runs on :attr:`workspace`.  Pass its ``input_rows(1)``, filled in
        place, and nothing is copied; the result is a view, valid until
        its next forward.
        """
        workspace = self.workspace
        rows = workspace.input_rows(1)
        if obs is not rows:
            rows[0] = obs
        return workspace.forward(rows)[0]

    def select_actions(self, x: np.ndarray, actions: np.ndarray) -> int:
        """Fill ``actions[j]`` with the greedy action :meth:`act_single`
        answers for row ``x[j]`` — the select every multi-row driver
        (lockstep evaluation, serving flushes) runs.  Returns how many
        rows the float64 forward decided.

        ``x`` is the ``(n, obs_dim)`` float64 rows the driver built, in a
        buffer it owns.  A frozen policy runs one float32 forward of its
        :attr:`certified_workspace` over all rows, and
        :meth:`~repro.nn.mlp.MLPInference.certified_argmax` keeps a row's
        answer only where its error bound proves it is the float64 argmax.
        Every other row — every row of a policy without that workspace —
        is decided by :meth:`logits_single`, the float64 batch-1 forward,
        which overwrites :attr:`workspace`'s input row, so ``x`` must not
        be that row.  Under ``REPRO_CHECK_INVARIANTS`` every certified row
        is re-decided there too.
        """
        certified = self.certified_workspace
        if certified is None:
            declined = len(x)
            actions.fill(-1)
        else:
            declined = certified.certified_argmax(x, actions)
            if self._sanitize:
                self.cross_check(x, actions)
        if declined:
            for j in np.flatnonzero(actions < 0).tolist():
                actions[j] = self.logits_single(x[j]).argmax()
        return declined

    def cross_check(self, x: np.ndarray, actions: Sequence[int]) -> None:
        """Sanitizer: re-decide every answer :attr:`certified_workspace`
        certified (``actions[j] >= 0`` for row ``x[j]`` of the
        ``(n, obs_dim)`` rows ``x``) through the float64
        :meth:`logits_single`; a disagreement raises
        :class:`~repro.analysis.invariants.InvariantViolation` naming the
        row, both actions, the float32 margin and δ."""
        certified = cast(MLPInference, self.certified_workspace)
        for j, action in enumerate(np.asarray(actions).tolist()):
            if action < 0:
                continue
            exact = int(self.logits_single(x[j]).argmax())
            if exact != action:
                logits = certified.forward(x)[j]
                bound = cast(np.ndarray, certified.logit_bound)
                raise InvariantViolation(
                    "certified float32 decision differs from the float64 one",
                    row=j,
                    certified=action,
                    exact=exact,
                    margin=float(logits[action] - logits[exact]),
                    delta=float(bound[action] + bound[exact]),
                )

    @property
    def workspace(self) -> MLPInference:
        """This policy's float64 batch-1 actor workspace, created on first
        use; :meth:`clone` and pickling leave it behind.  Every caller of
        one policy object shares it — every node of a deployment too — so,
        like ``MLP.forward``'s layer caches, it serves one thread at a
        time."""
        if self._workspace is None:
            self._workspace = MLPInference(self.actor)
        return self._workspace

    def __getstate__(self) -> Dict[str, Any]:
        # Unpickled weights are writable again, so the cast goes too.
        return {**self.__dict__, "_workspace": None, "certified_workspace": None}

    # ------------------------------------------------------------------

    def clone(self) -> "ActorCriticPolicy":
        """Independent, writable copy (same architecture)."""
        return ActorCriticPolicy(
            self.obs_dim,
            self.num_actions,
            hidden=self.actor.hidden,
            parameters=(self.actor.parameters, self.critic.parameters),
        )

    def freeze(self) -> "ActorCriticPolicy":
        """Mark every weight array read-only, cast the actor to float32
        once, and return ``self``.

        Inference never writes weights, so a frozen policy decides exactly
        as before; an optimiser step or any other in-place write now
        raises ``ValueError`` instead of silently changing every reader
        of a shared deployment snapshot.  Because the weights can no
        longer change, their float32 cast cannot go stale: it becomes
        :attr:`certified_workspace` when its logit bound is finite (no
        float32 overflow).  This is the only place that cast is made.
        Freezing a frozen policy changes nothing, so its cast and that
        cast's :attr:`~repro.nn.mlp.MLPInference.fallbacks` count stay.
        :meth:`clone` of a frozen policy is writable again and has no
        cast.
        """
        if not self.actor.parameters[0].flags.writeable:
            return self
        for weight in self.actor.parameters + self.critic.parameters:
            weight.setflags(write=False)
        certified = MLPInference(self.actor, np.float32)
        if np.isfinite(cast(np.ndarray, certified.logit_bound)).all():
            self.certified_workspace = certified
        return self

    def save(self, path) -> None:
        """Persist both networks to one ``.npz`` file.  The file names
        the hidden activation, always ``tanh``, so :meth:`load` can refuse
        a checkpoint of any other network."""
        arrays = {f"actor_w{i}": w for i, w in enumerate(self.actor.parameters)}
        arrays.update({f"critic_w{i}": w for i, w in enumerate(self.critic.parameters)})
        arrays["meta"] = np.array([self.obs_dim, self.num_actions])
        arrays["activation"] = np.array("tanh")
        np.savez(Path(path), **arrays)

    @classmethod
    def load(cls, path) -> "ActorCriticPolicy":
        """Restore a policy saved with :meth:`save`.

        The architecture is inferred from the checkpoint itself: each
        saved ``actor_w{i}`` matrix has shape ``(in + 1, out)``, so the
        hidden widths are the output dims of all but the last layer.
        Checkpoints trained with any ``hidden=`` therefore load without
        the caller having to know (or guess) the layer sizes.  Files
        written before ``activation`` was saved load as ``tanh``.

        Raises:
            FileNotFoundError: No file at ``path``.
            ValueError: The file is truncated, not an ``.npz`` archive,
                misses an array, holds a non-numeric or non-finite
                weight, a critic with another layer count than the
                actor, weight shapes that disagree with ``meta`` or each
                other, or names a hidden activation other than ``tanh``;
                the message starts with ``path`` and the reader's own
                exception is chained as ``__cause__``.
        """
        try:
            # Our own handle: np.load leaks the one it opens when the
            # archive turns out to be cut.
            with open(path, "rb") as handle, np.load(handle) as data:
                obs_dim, num_actions = (int(x) for x in data["meta"])
                num_layers = len([k for k in data.files if k.startswith("actor_w")])
                if num_layers < 1:
                    raise ValueError("checkpoint holds no actor weights")
                critic_layers = len([k for k in data.files if k.startswith("critic_w")])
                if critic_layers != num_layers:
                    raise ValueError(
                        f"critic has {critic_layers} layers, actor {num_layers}"
                    )
                actor = [data[f"actor_w{i}"] for i in range(num_layers)]
                critic = [data[f"critic_w{i}"] for i in range(num_layers)]
                for net, weights in (("actor", actor), ("critic", critic)):
                    for i, weight in enumerate(weights):
                        if not np.isfinite(weight).all():
                            raise ValueError(f"{net}_w{i} holds non-finite weights")
                if "activation" in data.files:
                    activation = str(data["activation"])
                    if activation != "tanh":
                        raise ValueError(f"hidden activation {activation!r} is not tanh")
            return cls(
                obs_dim,
                num_actions,
                hidden=[int(w.shape[1]) for w in actor[:-1]],
                parameters=(actor, critic),
            )
        except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable policy checkpoint ({exc!r})") from exc
