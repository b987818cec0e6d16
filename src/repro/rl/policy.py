"""Actor-critic policy: separate actor and critic MLPs.

Matches the paper's hyperparameters when left at defaults: two networks
(actor π_θ and critic V_φ), each with 2x256 tanh hidden units.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.nn.distributions import Categorical, gumbel_noise
from repro.nn.mlp import MLP, MLPInference

__all__ = ["ARGMAX_TIE_TOLERANCE", "ActorCriticPolicy"]

#: Top-two margin (relative to the top score's magnitude) at or below
#: which :meth:`ActorCriticPolicy.select_actions` recomputes a row through
#: the batch-1 forward.  A multi-row GEMM and the batch-1 one disagree by
#: ~1e-13 relative; action gaps that mean anything are orders above 1e-6.
ARGMAX_TIE_TOLERANCE = 1e-6


class ActorCriticPolicy:
    """Paired actor (π_θ) and critic (V_φ) networks.

    Args:
        obs_dim: Observation vector size (``4 Δ_G + 4`` for the paper's
            POMDP).
        num_actions: Action count (``Δ_G + 1``).
        hidden: Hidden layer widths (paper: 2x 256).
        activation: Hidden activation (paper: tanh).
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
        activation: str = "tanh",
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
        self.actor = MLP(obs_dim, hidden, num_actions, activation=activation,
                         out_gain=0.01, rng=rng, weights=actor_weights)
        self.critic = MLP(obs_dim, hidden, 1, activation=activation,
                          out_gain=1.0, rng=rng, weights=critic_weights)
        self._workspace: Optional[MLPInference] = None

    # ------------------------------------------------------------------

    def distribution(self, obs: np.ndarray) -> Categorical:
        """Action distribution π(·|obs) for a batch of observations — with
        :meth:`values` and :meth:`act`, the allocating reference that the
        workspace paths every driver runs are tested against."""
        return Categorical(self.actor.forward(obs))

    def values(self, obs: np.ndarray) -> np.ndarray:
        """State-value estimates V_φ(obs), shape (N,)."""
        return self.critic.forward(obs)[:, 0]

    def act(
        self,
        obs: np.ndarray,
        rng: np.random.Generator,
        deterministic: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Select actions for a batch of observations.

        Returns ``(actions, values, log_probs)``.  With
        ``deterministic=True`` the mode (argmax) action is taken — the
        usual choice for online inference after training.
        """
        dist = self.distribution(obs)
        actions = dist.mode() if deterministic else dist.sample(rng)
        values = self.values(obs)
        return actions, values, dist.log_prob(actions)

    def act_single(
        self,
        obs: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        deterministic: bool = True,
        inference: Optional[MLPInference] = None,
    ) -> int:
        """Select one action for a single observation vector (inference):
        the argmax of :meth:`logits_single`, plus Gumbel noise from one
        ``(1, K)`` uniform draw when sampling — what
        :class:`~repro.nn.distributions.Categorical` does on raw logits."""
        logits = self.logits_single(obs, inference)
        if deterministic:
            return int(logits.argmax())
        if rng is None:
            raise ValueError("stochastic act_single needs an rng")
        return int((logits + gumbel_noise(rng, (1, len(logits)))[0]).argmax())

    def logits_single(
        self, obs: np.ndarray, inference: Optional[MLPInference] = None
    ) -> np.ndarray:
        """Actor logits for one observation through the exact batch-1
        forward that :meth:`act_single` runs — bitwise
        ``actor.forward(obs[None, :])[0]``, and so the reference
        :meth:`select_actions` recomputes near argmax ties.

        Runs on ``inference`` (default: :attr:`workspace`).  Pass that
        workspace's ``input_rows(1)``, filled in place, and nothing is
        copied; the result is a view, valid until its next forward.
        """
        if inference is None:
            inference = self.workspace
        rows = inference.input_rows(1)
        if obs is not rows:
            rows[0] = obs
        return inference.forward(rows)[0]

    def select_actions(
        self, logits: np.ndarray, x: np.ndarray, actions: np.ndarray
    ) -> int:
        """Fill ``actions[j]`` with the greedy action :meth:`act_single`
        answers for row ``x[j]``, given the ``(n, K)`` ``logits`` one
        forward computed for all of ``x`` — the select every multi-row
        driver (lockstep evaluation, serving flushes) runs.  Returns how
        many rows went back through the batch-1 forward.

        - *near-tie guard*: a multi-row GEMM sums in another order than the
          batch-1 forward, so float64 logits differ from
          :meth:`logits_single` in the last ulps.  Only a near tie can turn
          that into a different argmax: rows whose top-two margin is within
          :data:`ARGMAX_TIE_TOLERANCE` are recomputed through
          ``logits_single(x[j])``.  float32 logits carry no bit-identity
          promise and skip the guard.
        - *one row*: a 1-row forward through a workspace prefix is the
          batch-1 forward, bit for bit, so the answer is a plain argmax.
        """
        n, k = logits.shape
        if n == 1:
            actions[0] = logits[0].argmax()
            return 0
        np.argmax(logits, axis=1, out=actions)
        if k == 1 or logits.dtype != np.float64:
            return 0
        ranked = np.sort(logits, axis=1)
        top = ranked[:, -1]
        near = np.nonzero(
            top - ranked[:, -2] <= ARGMAX_TIE_TOLERANCE * (1.0 + np.abs(top))
        )[0]
        for j in near:
            actions[j] = self.logits_single(x[j]).argmax()
        return len(near)

    @property
    def workspace(self) -> MLPInference:
        """This policy's float64 batch-1 actor workspace, created on first
        use; :meth:`clone` and pickling leave it behind.  Every caller of
        one policy object shares it — a deployment's per-node agents too,
        as they shared ``MLP.forward``'s layer caches before — so, like
        those, it serves one thread at a time."""
        if self._workspace is None:
            self._workspace = MLPInference(self.actor)
        return self._workspace

    def __getstate__(self) -> Dict[str, Any]:
        return {**self.__dict__, "_workspace": None}

    def actor_inference(self, dtype=np.float64) -> MLPInference:
        """Workspace-backed batched actor forward for evaluation loops
        (see :class:`~repro.nn.mlp.MLPInference` for dtype semantics)."""
        return MLPInference(self.actor, dtype=dtype)

    # ------------------------------------------------------------------

    def clone(self) -> "ActorCriticPolicy":
        """Independent, writable copy (same architecture and activation)."""
        return ActorCriticPolicy(
            self.obs_dim,
            self.num_actions,
            hidden=self.actor.hidden,
            activation=self.actor.activation,
            parameters=(self.actor.parameters, self.critic.parameters),
        )

    def freeze(self) -> "ActorCriticPolicy":
        """Mark every weight array read-only and return ``self``.

        Inference never writes weights, so a frozen policy decides exactly
        as before; an optimiser step or any other in-place write now
        raises ``ValueError`` instead of silently changing every reader
        of a shared deployment snapshot.  :meth:`clone` of a frozen policy
        is writable again.
        """
        for weight in self.actor.parameters + self.critic.parameters:
            weight.setflags(write=False)
        return self

    def save(self, path) -> None:
        """Persist both networks to one ``.npz`` file."""
        arrays = {f"actor_w{i}": w for i, w in enumerate(self.actor.parameters)}
        arrays.update({f"critic_w{i}": w for i, w in enumerate(self.critic.parameters)})
        arrays["meta"] = np.array([self.obs_dim, self.num_actions])
        arrays["activation"] = np.array(self.actor.activation)
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
            ValueError: The file is truncated, not an ``.npz`` archive or
                misses an array; the message starts with ``path`` and the
                reader's own exception is chained as ``__cause__``.
        """
        try:
            # Our own handle: np.load leaks the one it opens when the
            # archive turns out to be cut.
            with open(path, "rb") as handle, np.load(handle) as data:
                obs_dim, num_actions = (int(x) for x in data["meta"])
                num_layers = len([k for k in data.files if k.startswith("actor_w")])
                if num_layers < 1:
                    raise ValueError("checkpoint holds no actor weights")
                actor = [data[f"actor_w{i}"] for i in range(num_layers)]
                critic = [data[f"critic_w{i}"] for i in range(num_layers)]
                activation = (
                    str(data["activation"]) if "activation" in data.files else "tanh"
                )
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable policy checkpoint ({exc!r})") from exc
        return cls(
            obs_dim,
            num_actions,
            hidden=[int(w.shape[1]) for w in actor[:-1]],
            activation=activation,
            parameters=(actor, critic),
        )
