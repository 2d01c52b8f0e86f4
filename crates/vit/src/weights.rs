//! Weight checkpointing in a small self-describing binary format.
//!
//! The format exists so that the multi-stage training pipeline can snapshot a
//! backbone before each selector insertion (Algorithm 1 restores "the model
//! … from the end of the last Step 1" when constraints fail) without pulling
//! a serialization framework into the workspace.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "HVIT" | version u32 | param count u32 |
//!   per param: name len u32 | name bytes | rank u32 | dims u32… | f32 data…
//! ```

use heatvit_nn::Module;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"HVIT";
const VERSION: u32 = 1;

/// Error produced by checkpoint loading.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a HeatViT checkpoint or has the wrong version.
    BadHeader,
    /// The checkpoint's parameters do not line up with the target module.
    Mismatch {
        /// Human-readable description of what differed.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadHeader => write!(f, "not a heatvit checkpoint (bad magic/version)"),
            CheckpointError::Mismatch { detail } => {
                write!(f, "checkpoint does not match module: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Writes every parameter of `module` to `w`.
///
/// Parameters are identified positionally (via [`Module::params`] order), so
/// save/load pairs must use the same architecture.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on write failure.
// Kept for ROADMAP item 1a: the teacher fixture is written and read with it.
pub fn save_weights<W: Write>(module: &dyn Module, mut w: W) -> Result<(), CheckpointError> {
    let params = module.params();
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(params.len() as u32).to_le_bytes())?;
    for p in params {
        let name = p.name().as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        let dims = p.value().dims();
        w.write_all(&(dims.len() as u32).to_le_bytes())?;
        for &d in dims {
            w.write_all(&(d as u32).to_le_bytes())?;
        }
        for &v in p.value().data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Restores every parameter of `module` from `r`.
///
/// # Errors
///
/// Returns [`CheckpointError::BadHeader`] for foreign data and
/// [`CheckpointError::Mismatch`] if the parameter count or any shape differs
/// from the target module.
// Kept for ROADMAP item 1a: the teacher fixture is written and read with it.
pub fn load_weights<R: Read>(module: &mut dyn Module, mut r: R) -> Result<(), CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadHeader);
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(CheckpointError::BadHeader);
    }
    let count = read_u32(&mut r)? as usize;
    let mut params = module.params_mut();
    if count != params.len() {
        return Err(CheckpointError::Mismatch {
            detail: format!("checkpoint has {count} params, module has {}", params.len()),
        });
    }
    for p in params.iter_mut() {
        let name_len = read_u32(&mut r)? as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let rank = read_u32(&mut r)? as usize;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u32(&mut r)? as usize);
        }
        if dims != p.value().dims() {
            return Err(CheckpointError::Mismatch {
                detail: format!(
                    "param {} expects shape {:?}, checkpoint has {:?}",
                    p.name(),
                    p.value().dims(),
                    dims
                ),
            });
        }
        let numel: usize = dims.iter().product();
        let mut buf = [0u8; 4];
        let data = p.value_mut().data_mut();
        for slot in data.iter_mut().take(numel) {
            r.read_exact(&mut buf)?;
            *slot = f32::from_le_bytes(buf);
        }
    }
    Ok(())
}

/// Serializes a module's weights to a byte vector.
// Kept for ROADMAP item 1a: the teacher fixture is written and read with it.
pub fn weights_to_vec(module: &dyn Module) -> Vec<u8> {
    let mut out = Vec::new();
    save_weights(module, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Restores a module's weights from a byte slice.
///
/// # Errors
///
/// See [`load_weights`].
// Kept for ROADMAP item 1a: the teacher fixture is written and read with it.
pub fn weights_from_slice(module: &mut dyn Module, bytes: &[u8]) -> Result<(), CheckpointError> {
    load_weights(module, bytes)
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ViTConfig, VisionTransformer};
    use heatvit_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_restores_exact_outputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
        let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
        let before = model.infer(&image);
        let bytes = weights_to_vec(&model);

        let mut other = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
        assert!(other.infer(&image).max_abs_diff(&before) > 1e-3);
        weights_from_slice(&mut other, &bytes).unwrap();
        assert!(other.infer(&image).max_abs_diff(&before) <= 0.0);
    }

    #[test]
    fn rejects_foreign_bytes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
        let err = weights_from_slice(&mut model, b"not a checkpoint").unwrap_err();
        assert!(matches!(err, CheckpointError::BadHeader));
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut rng = StdRng::seed_from_u64(2);
        let small = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
        let bytes = weights_to_vec(&small);
        let mut big = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
        let err = weights_from_slice(&mut big, &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
        let bytes = weights_to_vec(&model);
        let mut copy = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
        let err = weights_from_slice(&mut copy, &bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
