//! Neural-network layers: linear, layer normalization, activations, MLP.

mod activation;
mod fused;
mod linear;
mod mlp;
mod norm;

pub use activation::Activation;
pub use fused::layer_norm_project_into;
pub use linear::Linear;
pub use mlp::Mlp;
pub use norm::LayerNorm;
